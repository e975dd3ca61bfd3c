// The symbolic-value representation: precedence-aware composition, ->member
// chain tracking, -->member[[n]] compression, select rewriting.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "src/duel/value.h"

namespace duel {
namespace {

class SymTest : public ::testing::Test {
 protected:
  Sym Plain(std::string_view text, int prec = kPrecPrimary) {
    return Sym::Plain(arena_, text, prec);
  }

  Arena arena_;
};

TEST_F(SymTest, PlainAndEmpty) {
  Sym s = Plain("x");
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.Text(), "x");
  EXPECT_TRUE(Sym::None().empty());
  EXPECT_EQ(Sym::None().Text(), "");
}

TEST_F(SymTest, BinaryComposition) {
  Sym a = Plain("a");
  Sym b = Plain("b");
  Sym sum = ComposeBinary(arena_, a, Op::kAdd, b);
  EXPECT_EQ(sum.Text(), "a+b");
  // A looser operand on the tight side gets parenthesized.
  Sym prod = ComposeBinary(arena_, sum, Op::kMul, b);
  EXPECT_EQ(prod.Text(), "(a+b)*b");
  // Left-associativity: same precedence on the left needs no parens.
  Sym chain = ComposeBinary(arena_, sum, Op::kAdd, b);
  EXPECT_EQ(chain.Text(), "a+b+b");
  // ...but on the right it does.
  Sym right = ComposeBinary(arena_, b, Op::kSub, sum);
  EXPECT_EQ(right.Text(), "b-(a+b)");
}

TEST_F(SymTest, UnaryAndIndexComposition) {
  Sym x = Plain("x");
  EXPECT_EQ(ComposeUnary(arena_, Op::kNeg, x).Text(), "-x");
  Sym sum = ComposeBinary(arena_, x, Op::kAdd, x);
  EXPECT_EQ(ComposeUnary(arena_, Op::kDeref, sum).Text(), "*(x+x)");
  EXPECT_EQ(ComposeIndex(arena_, x, Plain("3")).Text(), "x[3]");
  EXPECT_EQ(ComposeIndex(arena_, sum, Plain("3")).Text(), "(x+x)[3]");
  EXPECT_EQ(ComposeUnary(arena_, Op::kPostInc, x).Text(), "x++");

  // Where two spellings meet as characters that lex as one longer token, a
  // space keeps them apart; elsewhere the texts join directly.
  Sym neg = ComposeUnary(arena_, Op::kNeg, x);          // -x
  Sym pos = ComposeUnary(arena_, Op::kPos, x);          // +x
  Sym addr = ComposeUnary(arena_, Op::kAddrOf, x);      // &x
  Sym predec = ComposeUnary(arena_, Op::kPreDec, x);    // --x
  Sym postdec = ComposeUnary(arena_, Op::kPostDec, x);  // x--
  Sym minus_one = Plain("-1");
  const std::pair<Sym, const char*> kCases[] = {
      {ComposeUnary(arena_, Op::kNeg, neg), "- -x"},
      {ComposeUnary(arena_, Op::kNeg, minus_one), "- -1"},
      {ComposeUnary(arena_, Op::kPos, pos), "+ +x"},
      {ComposeUnary(arena_, Op::kAddrOf, addr), "& &x"},
      {ComposeUnary(arena_, Op::kNeg, predec), "- --x"},
      {ComposeUnary(arena_, Op::kPreDec, minus_one), "---1"},  // `--` is whole: reads -- -1
      {ComposeUnary(arena_, Op::kNot, neg), "!-x"},
      {ComposeBinary(arena_, x, Op::kSub, neg), "x- -x"},
      {ComposeBinary(arena_, x, Op::kSub, minus_one), "x- -1"},
      {ComposeBinary(arena_, x, Op::kAdd, pos), "x+ +x"},
      {ComposeBinary(arena_, x, Op::kBitAnd, addr), "x& &x"},
      {ComposeBinary(arena_, x, Op::kAdd, neg), "x+-x"},
      {ComposeBinary(arena_, postdec, Op::kGt, x), "x-- >x"},  // not x-->x
      {ComposeBinary(arena_, postdec, Op::kSub, x), "x---x"},  // reads x-- - x
      {ComposeBinary(arena_, postdec, Op::kSub, neg), "x--- -x"},
  };
  for (const auto& [sym, want] : kCases) {
    EXPECT_EQ(sym.Text(), want);
  }
}

TEST_F(SymTest, ArrowChainsExpandThenCompress) {
  Sym s = Plain("L");
  for (int i = 1; i <= 3; ++i) {
    s = s.WithMember(arena_, "next", /*arrow=*/true);
  }
  EXPECT_EQ(s.Text(), "L->next->next->next");
  s = s.WithMember(arena_, "next", true);
  EXPECT_EQ(s.Text(), "L-->next[[4]]");  // threshold = 4
  s = s.WithMember(arena_, "next", true);
  EXPECT_EQ(s.Text(), "L-->next[[5]]");
}

TEST_F(SymTest, ChainBreaksOnDifferentMember) {
  Sym s = Plain("root");
  s = s.WithMember(arena_, "left", true);
  s = s.WithMember(arena_, "left", true);
  s = s.WithMember(arena_, "right", true);
  EXPECT_EQ(s.Text(), "root->left->left->right");
  // After the break, the suffix keeps growing without compressing.
  for (int i = 0; i < 5; ++i) {
    s = s.WithMember(arena_, "right", true);
  }
  EXPECT_EQ(s.Text(), "root->left->left->right->right->right->right->right->right");
}

TEST_F(SymTest, SuffixAfterChainStillCompresses) {
  Sym s = Plain("hash[287]");
  for (int i = 0; i < 8; ++i) {
    s = s.WithMember(arena_, "next", true);
  }
  s = s.WithMember(arena_, "scope", true);
  EXPECT_EQ(s.Text(), "hash[287]-->next[[8]]->scope");
}

TEST_F(SymTest, DotDoesNotChain) {
  Sym s = Plain("a");
  s = s.WithMember(arena_, "b", /*arrow=*/false);
  s = s.WithMember(arena_, "b", false);
  EXPECT_EQ(s.Text(), "a.b.b");
}

TEST_F(SymTest, SelectedAtRewritesChains) {
  Sym s = Plain("head");
  for (int i = 0; i < 3; ++i) {
    s = s.WithMember(arena_, "next", true);
  }
  s = s.WithMember(arena_, "value", true);
  EXPECT_EQ(s.Text(), "head->next->next->next->value");
  EXPECT_EQ(s.SelectedAt(arena_, 3).Text(), "head-->next[[3]]->value");
  // Non-chain syms pass through unchanged.
  Sym plain = Plain("6*8", kPrecMul);
  EXPECT_EQ(plain.SelectedAt(arena_, 52).Text(), "6*8");
}

TEST_F(SymTest, LooseHeadIsParenthesizedWhenChained) {
  Sym cond = Plain("a?b:c", kPrecCond);
  Sym s = cond.WithMember(arena_, "next", true);
  EXPECT_EQ(s.Text(), "(a?b:c)->next");
}

TEST_F(SymTest, ShortTextsStayInTheHandle) {
  EXPECT_EQ(Plain("big[123456]").Text(), "big[123456]");
  EXPECT_EQ(Sym::Decimal(INT64_MIN).Text(), "-9223372036854775808");
  EXPECT_EQ(Sym::DecimalUnsigned(UINT64_MAX).Text(), "18446744073709551615");
  EXPECT_EQ(ComposeIndex(arena_, Plain("big"), Sym::Decimal(123456)).Text(), "big[123456]");
  EXPECT_EQ(arena_.used(), 0u);
  const std::string long_text(Sym::kInlineCap + 1, 'x');
  EXPECT_EQ(Plain(long_text).Text(), long_text);
  EXPECT_GT(arena_.used(), 0u);
}

TEST_F(SymTest, ChainStepsAddConstantArenaBytes) {
  Sym s = Plain("L").WithMember(arena_, "next", true);
  const size_t chain_record = arena_.used();
  for (int i = 0; i < 1000; ++i) {
    s = s.WithMember(arena_, "next", true);  // bumps the count in the handle
  }
  EXPECT_EQ(arena_.used(), chain_record);
  EXPECT_EQ(s.Text(), "L-->next[[1001]]");
  // Text after the chain shares everything before it: each step costs the
  // same few bytes however long the text has grown.
  for (int i = 0; i < 1000; ++i) {
    size_t before = arena_.used();
    s = s.WithMember(arena_, i % 2 == 0 ? "left" : "right", true);
    EXPECT_LE(arena_.used() - before, 32u) << i;
  }
  EXPECT_EQ(s.size(), s.Text().size());
  EXPECT_EQ(s.Text().rfind("L-->next[[1001]]->left->right->left", 0), 0u);
}

TEST_F(SymTest, RehomedChainOutlivesItsArena) {
  Arena query;
  Sym s = Sym::Plain(query, "a_head_longer_than_the_handle", kPrecPostfix);
  for (int i = 0; i < 5; ++i) {
    s = s.WithMember(query, "next", true);
  }
  s = s.WithMember(query, "value", false);
  const std::string want = s.Text();
  Sym kept = s.Rehome(arena_);
  query.Clear();
  EXPECT_EQ(kept.Text(), want);
  EXPECT_EQ(kept.SelectedAt(arena_, 2).Text(), "a_head_longer_than_the_handle-->next[[2]].value");
}

}  // namespace
}  // namespace duel
