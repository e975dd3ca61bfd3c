#include "src/duel/lexer.h"

#include <gtest/gtest.h>

#include "src/duel/ast.h"

namespace duel {
namespace {

std::vector<Tok> Kinds(const std::string& s) {
  std::vector<Tok> out;
  for (const Token& t : Lexer(s).LexAll()) {
    out.push_back(t.kind);
  }
  return out;
}

TEST(LexerTest, DuelOperators) {
  EXPECT_EQ(Kinds(".. >? <? >=? <=? ==? !=? === => := #/ +/ &&/ ||/ @ # --> -->>"),
            (std::vector<Tok>{Tok::kDotDot, Tok::kIfGt, Tok::kIfLt, Tok::kIfGe, Tok::kIfLe,
                              Tok::kIfEq, Tok::kIfNe, Tok::kSeqEq, Tok::kImply, Tok::kDefine,
                              Tok::kCountOf, Tok::kSumOf, Tok::kAllOf, Tok::kAnyOf, Tok::kAt,
                              Tok::kHash, Tok::kExpand, Tok::kExpandBfs, Tok::kEnd}));
  // Every operator's spelling in the operator table lexes as its token.
  for (const OpInfo& row : kOpTable) {
    if (*row.spelling != '\0') {
      EXPECT_EQ(Kinds(row.spelling), (std::vector<Tok>{row.tok, Tok::kEnd})) << row.name;
    }
  }
}

TEST(LexerTest, MaximalMunchOfArrowFamilies) {
  EXPECT_EQ(Kinds("a->b"), (std::vector<Tok>{Tok::kIdent, Tok::kArrow, Tok::kIdent, Tok::kEnd}));
  EXPECT_EQ(Kinds("a-->b"),
            (std::vector<Tok>{Tok::kIdent, Tok::kExpand, Tok::kIdent, Tok::kEnd}));
  EXPECT_EQ(Kinds("a-->>b"),
            (std::vector<Tok>{Tok::kIdent, Tok::kExpandBfs, Tok::kIdent, Tok::kEnd}));
  EXPECT_EQ(Kinds("a--"), (std::vector<Tok>{Tok::kIdent, Tok::kDec, Tok::kEnd}));
  EXPECT_EQ(Kinds("a-b"), (std::vector<Tok>{Tok::kIdent, Tok::kMinus, Tok::kIdent, Tok::kEnd}));
}

TEST(LexerTest, RangeVersusFloat) {
  // "1..3" must be int .. int, while "1.5" is a float.
  std::vector<Token> toks = Lexer("1..3").LexAll();
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, Tok::kIntLit);
  EXPECT_EQ(toks[0].int_value, 1u);
  EXPECT_EQ(toks[1].kind, Tok::kDotDot);
  EXPECT_EQ(toks[2].int_value, 3u);

  toks = Lexer("1.5").LexAll();
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, Tok::kFloatLit);
  EXPECT_DOUBLE_EQ(toks[0].float_value, 1.5);

  toks = Lexer("1.").LexAll();
  EXPECT_EQ(toks[0].kind, Tok::kFloatLit);
}

TEST(LexerTest, NumbersBasesAndSuffixes) {
  std::vector<Token> toks = Lexer("0x1f 017 42u 7L 1e3 2.5e-2").LexAll();
  EXPECT_EQ(toks[0].int_value, 0x1fu);
  EXPECT_EQ(toks[1].int_value, 15u);  // octal
  EXPECT_TRUE(toks[2].is_unsigned);
  EXPECT_TRUE(toks[3].is_long);
  EXPECT_EQ(toks[4].kind, Tok::kFloatLit);
  EXPECT_DOUBLE_EQ(toks[4].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[5].float_value, 0.025);
}

TEST(LexerTest, CharAndStringEscapes) {
  std::vector<Token> toks = Lexer(R"('a' '\n' '\0' '\x41' "he\tllo\\")").LexAll();
  EXPECT_EQ(toks[0].int_value, static_cast<uint64_t>('a'));
  EXPECT_EQ(toks[1].int_value, static_cast<uint64_t>('\n'));
  EXPECT_EQ(toks[2].int_value, 0u);
  EXPECT_EQ(toks[3].int_value, 0x41u);
  EXPECT_EQ(toks[4].kind, Tok::kStringLit);
  EXPECT_EQ(toks[4].text, "he\tllo\\");
}

TEST(LexerTest, SelectBracketsAreSplittable) {
  // ']' always lexes alone so that both "x[a[[b]]]" and "x[[a[b]]]" parse.
  EXPECT_EQ(Kinds("[[ ]"), (std::vector<Tok>{Tok::kLSelect, Tok::kRBracket, Tok::kEnd}));
  EXPECT_EQ(Kinds("]]]"), (std::vector<Tok>{Tok::kRBracket, Tok::kRBracket, Tok::kRBracket,
                                            Tok::kEnd}));
}

TEST(LexerTest, UnderscoreIsItsOwnToken) {
  EXPECT_EQ(Kinds("_ _a a_"),
            (std::vector<Tok>{Tok::kUnderscore, Tok::kIdent, Tok::kIdent, Tok::kEnd}));
}

TEST(LexerTest, KeywordsAndIdentifiers) {
  EXPECT_EQ(Kinds("if else while for sizeof iff"),
            (std::vector<Tok>{Tok::kKwIf, Tok::kKwElse, Tok::kKwWhile, Tok::kKwFor,
                              Tok::kKwSizeof, Tok::kIdent, Tok::kEnd}));
}

TEST(LexerTest, DoubleHashStartsComment) {
  EXPECT_EQ(Kinds("1 + 2 ## the rest is commentary ->"),
            (std::vector<Tok>{Tok::kIntLit, Tok::kPlus, Tok::kIntLit, Tok::kEnd}));
}

TEST(LexerTest, ErrorsOnBadInput) {
  EXPECT_THROW(Lexer("'a").LexAll(), DuelError);
  EXPECT_THROW(Lexer("\"abc").LexAll(), DuelError);
  EXPECT_THROW(Lexer("`").LexAll(), DuelError);
}

TEST(LexerTest, SourceRangesCoverTokens) {
  std::vector<Token> toks = Lexer("ab + 12").LexAll();
  EXPECT_EQ(toks[0].range.begin, 0u);
  EXPECT_EQ(toks[0].range.end, 2u);
  EXPECT_EQ(toks[2].range.begin, 5u);
  EXPECT_EQ(toks[2].range.end, 7u);
}

}  // namespace
}  // namespace duel
