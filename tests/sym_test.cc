// The symbolic-value representation: precedence-aware composition, ->member
// chain tracking, -->member[[n]] compression, select rewriting.

#include <gtest/gtest.h>

#include <utility>

#include "src/duel/value.h"

namespace duel {
namespace {

TEST(SymTest, PlainAndEmpty) {
  Sym s = Sym::Plain("x");
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.Text(), "x");
  EXPECT_TRUE(Sym::None().empty());
  EXPECT_EQ(Sym::None().Text(), "");
}

TEST(SymTest, BinaryComposition) {
  Sym a = Sym::Plain("a");
  Sym b = Sym::Plain("b");
  Sym sum = ComposeBinary(a, Op::kAdd, b);
  EXPECT_EQ(sum.Text(), "a+b");
  // A looser operand on the tight side gets parenthesized.
  Sym prod = ComposeBinary(sum, Op::kMul, b);
  EXPECT_EQ(prod.Text(), "(a+b)*b");
  // Left-associativity: same precedence on the left needs no parens.
  Sym chain = ComposeBinary(sum, Op::kAdd, b);
  EXPECT_EQ(chain.Text(), "a+b+b");
  // ...but on the right it does.
  Sym right = ComposeBinary(b, Op::kSub, sum);
  EXPECT_EQ(right.Text(), "b-(a+b)");
}

TEST(SymTest, UnaryAndIndexComposition) {
  Sym x = Sym::Plain("x");
  EXPECT_EQ(ComposeUnary(Op::kNeg, x).Text(), "-x");
  Sym sum = ComposeBinary(x, Op::kAdd, x);
  EXPECT_EQ(ComposeUnary(Op::kDeref, sum).Text(), "*(x+x)");
  EXPECT_EQ(ComposeIndex(x, Sym::Plain("3")).Text(), "x[3]");
  EXPECT_EQ(ComposeIndex(sum, Sym::Plain("3")).Text(), "(x+x)[3]");
  EXPECT_EQ(ComposeUnary(Op::kPostInc, x).Text(), "x++");

  // Where two spellings meet as characters that lex as one longer token, a
  // space keeps them apart; elsewhere the texts join directly.
  Sym neg = ComposeUnary(Op::kNeg, x);          // -x
  Sym pos = ComposeUnary(Op::kPos, x);          // +x
  Sym addr = ComposeUnary(Op::kAddrOf, x);      // &x
  Sym predec = ComposeUnary(Op::kPreDec, x);    // --x
  Sym postdec = ComposeUnary(Op::kPostDec, x);  // x--
  Sym minus_one = Sym::Plain("-1");
  const std::pair<Sym, const char*> kCases[] = {
      {ComposeUnary(Op::kNeg, neg), "- -x"},
      {ComposeUnary(Op::kNeg, minus_one), "- -1"},
      {ComposeUnary(Op::kPos, pos), "+ +x"},
      {ComposeUnary(Op::kAddrOf, addr), "& &x"},
      {ComposeUnary(Op::kNeg, predec), "- --x"},
      {ComposeUnary(Op::kPreDec, minus_one), "---1"},  // `--` is whole: reads -- -1
      {ComposeUnary(Op::kNot, neg), "!-x"},
      {ComposeBinary(x, Op::kSub, neg), "x- -x"},
      {ComposeBinary(x, Op::kSub, minus_one), "x- -1"},
      {ComposeBinary(x, Op::kAdd, pos), "x+ +x"},
      {ComposeBinary(x, Op::kBitAnd, addr), "x& &x"},
      {ComposeBinary(x, Op::kAdd, neg), "x+-x"},
      {ComposeBinary(postdec, Op::kGt, x), "x-- >x"},  // not x-->x
      {ComposeBinary(postdec, Op::kSub, x), "x---x"},  // reads x-- - x
      {ComposeBinary(postdec, Op::kSub, neg), "x--- -x"},
  };
  for (const auto& [sym, want] : kCases) {
    EXPECT_EQ(sym.Text(), want);
  }
}

TEST(SymTest, ArrowChainsExpandThenCompress) {
  Sym s = Sym::Plain("L");
  for (int i = 1; i <= 3; ++i) {
    s = s.WithMember("next", /*arrow=*/true);
  }
  EXPECT_EQ(s.Text(), "L->next->next->next");
  s = s.WithMember("next", true);
  EXPECT_EQ(s.Text(), "L-->next[[4]]");  // threshold = 4
  s = s.WithMember("next", true);
  EXPECT_EQ(s.Text(), "L-->next[[5]]");
}

TEST(SymTest, ChainBreaksOnDifferentMember) {
  Sym s = Sym::Plain("root");
  s = s.WithMember("left", true);
  s = s.WithMember("left", true);
  s = s.WithMember("right", true);
  EXPECT_EQ(s.Text(), "root->left->left->right");
  // After the break, the suffix keeps growing without compressing.
  for (int i = 0; i < 5; ++i) {
    s = s.WithMember("right", true);
  }
  EXPECT_EQ(s.Text(), "root->left->left->right->right->right->right->right->right");
}

TEST(SymTest, SuffixAfterChainStillCompresses) {
  Sym s = Sym::Plain("hash[287]");
  for (int i = 0; i < 8; ++i) {
    s = s.WithMember("next", true);
  }
  s = s.WithMember("scope", true);
  EXPECT_EQ(s.Text(), "hash[287]-->next[[8]]->scope");
}

TEST(SymTest, DotDoesNotChain) {
  Sym s = Sym::Plain("a");
  s = s.WithMember("b", /*arrow=*/false);
  s = s.WithMember("b", false);
  EXPECT_EQ(s.Text(), "a.b.b");
}

TEST(SymTest, SelectedAtRewritesChains) {
  Sym s = Sym::Plain("head");
  for (int i = 0; i < 3; ++i) {
    s = s.WithMember("next", true);
  }
  s = s.WithMember("value", true);
  EXPECT_EQ(s.Text(), "head->next->next->next->value");
  EXPECT_EQ(s.SelectedAt(3).Text(), "head-->next[[3]]->value");
  // Non-chain syms pass through unchanged.
  Sym plain = Sym::Plain("6*8", kPrecMul);
  EXPECT_EQ(plain.SelectedAt(52).Text(), "6*8");
}

TEST(SymTest, LooseHeadIsParenthesizedWhenChained) {
  Sym cond = Sym::Plain("a?b:c", kPrecCond);
  Sym s = cond.WithMember("next", true);
  EXPECT_EQ(s.Text(), "(a?b:c)->next");
}

}  // namespace
}  // namespace duel
