// E1: every inline `gdb> duel` example from the paper, run verbatim against
// scenario images that reconstruct the program states the paper assumes.
// Where this reproduction's display differs from the paper's (documented in
// EXPERIMENTS.md), the expectation below is our format and the difference is
// noted in a comment.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class PaperExamplesTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  PaperExamplesTest() : fx_(ConfigOptions(GetParam())) {}

  DuelFixture fx_;
};

// --- Abstract ---------------------------------------------------------------

TEST_P(PaperExamplesTest, AbstractExamples) {
  // "x[..100] >? 0 displays the positive elements of x and their indices"
  std::vector<int32_t> x(100, 0);
  x[12] = 3;
  x[57] = 41;
  scenarios::BuildIntArray(fx_.image(), "x", x);
  EXPECT_EQ(fx_.Lines("x[..100] >? 0"),
            (std::vector<std::string>{"x[12] = 3", "x[57] = 41"}));

  // "(x,y).a yields the a field of x and of y"
  target::ImageBuilder b(fx_.image());
  target::TypeRef rec = b.Struct("ab").Field("a", b.Int()).Field("z", b.Int()).Build();
  target::Addr xs = b.Global("xs", rec);
  target::Addr ys = b.Global("ys", rec);
  b.PokeI32(xs, 10);
  b.PokeI32(ys, 20);
  EXPECT_EQ(fx_.Lines("(xs,ys).a"),
            (std::vector<std::string>{"xs.a = 10", "ys.a = 20"}));
}

// --- Syntax section -----------------------------------------------------

TEST_P(PaperExamplesTest, PrintEquivalence) {
  // gdb> duel 1 + (double)3/2   (gdb prints "2.500"; we print "2.5")
  EXPECT_EQ(fx_.One("1 + (double)3/2"), "1+(double)3/2 = 2.5");
}

TEST_P(PaperExamplesTest, ClearScopeFieldsOfFirstSymbols) {
  // gdb> duel hash[0..1023]->scope = 0 ;
  scenarios::BuildDenseSymtab(fx_.image(), 1024);
  EXPECT_TRUE(fx_.Lines("hash[0..1023]->scope = 0 ;").empty());
  EXPECT_EQ(fx_.One("#/(hash[..1024]->scope ==? 0)"), "1024");
}

TEST_P(PaperExamplesTest, RangeAlternationSearch) {
  // gdb> duel x[1..4,8,12..50] >? 5 <? 10
  std::vector<int32_t> x(51, 0);
  x[3] = 7;
  x[18] = 9;
  x[47] = 6;
  x[2] = 12;  // decoys outside (5,10)
  x[8] = 5;
  x[20] = 3;
  scenarios::BuildIntArray(fx_.image(), "x", x);
  EXPECT_EQ(fx_.Lines("x[1..4,8,12..50] >? 5 <? 10"),
            (std::vector<std::string>{"x[3] = 7", "x[18] = 9", "x[47] = 6"}));
  // The same search, reformulated: x[1..4,8,12..50] ==? (6..9)
  EXPECT_EQ(fx_.Lines("x[1..4,8,12..50] ==? (6..9)"),
            (std::vector<std::string>{"x[3] = 7", "x[18] = 9", "x[47] = 6"}));
}

TEST_P(PaperExamplesTest, CStyleEqualityPrintsAllIndices) {
  // gdb> duel x[1..3] == 7
  std::vector<int32_t> x(4, 0);
  x[3] = 7;
  scenarios::BuildIntArray(fx_.image(), "x", x);
  EXPECT_EQ(fx_.Lines("x[1..3] == 7"),
            (std::vector<std::string>{"x[1]==7 = 0", "x[2]==7 = 0", "x[3]==7 = 1"}));
}

void BuildScope42And529(target::TargetImage& image) {
  std::map<size_t, std::vector<scenarios::SymEntry>> chains;
  chains[42] = {{"deep", 7}};
  chains[529] = {{"deeper", 8}};
  chains[7] = {{"shallow", 2}};  // present but filtered out by >? 5
  chains[100] = {{"other", 5}};
  scenarios::BuildSymtab(image, chains, 1024);
}

TEST_P(PaperExamplesTest, HashScopeScan) {
  // gdb> duel (hash[..1024] !=? 0)->scope >? 5
  BuildScope42And529(fx_.image());
  EXPECT_EQ(fx_.Lines("(hash[..1024] !=? 0)->scope >? 5"),
            (std::vector<std::string>{"hash[42]->scope = 7", "hash[529]->scope = 8"}));
}

TEST_P(PaperExamplesTest, HashScopeScanAsCLoops) {
  // The three C-and-DUEL mixed reformulations from the paper print the same
  // scope fields.
  BuildScope42And529(fx_.image());
  const char* kVariants[] = {
      "int i; for (i = 0; i < 1024; i++)\n"
      "  if (hash[i] && hash[i]->scope > 5)\n"
      "    hash[i]->scope",
      "int i; for (i = 0; i < 1024; i++)\n"
      "  if (hash[i]) hash[i]->scope >? 5",
      "int i; for (i = 0; i < 1024; i++)\n"
      "  (hash[i] !=? 0)->scope >? 5",
  };
  for (const char* q : kVariants) {
    std::vector<std::string> lines = fx_.Lines(q);
    ASSERT_EQ(lines.size(), 2u) << q;
    EXPECT_EQ(lines[0].substr(lines[0].find(" = ")), " = 7") << q;
    EXPECT_EQ(lines[1].substr(lines[1].find(" = ")), " = 8") << q;
  }
  // The full C program (printf included) also runs as a DUEL expression.
  fx_.Lines(
      "int i;\n"
      "for (i = 0; i < 1024; i++)\n"
      "  if (hash[i] != 0)\n"
      "    if (hash[i]->scope > 5)\n"
      "      printf(\"hash[%d]->scope = %d\\n\", i, hash[i]->scope) ;");
  EXPECT_EQ(fx_.image().TakeOutput(),
            "hash[42]->scope = 7\nhash[529]->scope = 8\n");
}

TEST_P(PaperExamplesTest, PrefixRangeWithPointerFilter) {
  // gdb> duel (hash[..1024] !=? 0)->scope >? 5   (shown with hash[..1024])
  BuildScope42And529(fx_.image());
  EXPECT_EQ(fx_.Lines("(hash[..1024] !=? 0)->scope >? 5"),
            (std::vector<std::string>{"hash[42]->scope = 7", "hash[529]->scope = 8"}));
}

TEST_P(PaperExamplesTest, ForWithIfExpression) {
  // gdb> duel for (i = 0; i < 9; i++) 4 + if (i%3==0) i*5
  std::vector<std::string> lines =
      fx_.Lines("int i; for (i = 0; i < 9; i++) 4 + if (i%3==0) i*5");
  EXPECT_EQ(lines, (std::vector<std::string>{"4+i*5 = 4", "4+i*5 = 19", "4+i*5 = 34"}));
}

TEST_P(PaperExamplesTest, ForWithBraceOverride) {
  // gdb> duel for (i = 0; i < 9; i++) 4 + if (i%3 == 0) {i}*5
  std::vector<std::string> lines =
      fx_.Lines("int i; for (i = 0; i < 9; i++) 4 + if (i%3 == 0) {i}*5");
  EXPECT_EQ(lines, (std::vector<std::string>{"4+0*5 = 4", "4+3*5 = 19", "4+6*5 = 34"}));
}

TEST_P(PaperExamplesTest, SequenceAndImply) {
  EXPECT_EQ(fx_.Lines("i := 1..3; i + 4"), (std::vector<std::string>{"i+4 = 7"}));
  EXPECT_EQ(fx_.Lines("i := 1..3 => {i} + 4"),
            (std::vector<std::string>{"1+4 = 5", "2+4 = 6", "3+4 = 7"}));
}

TEST_P(PaperExamplesTest, AliasChainClearsScopes) {
  // duel x:= hash[..1024] !=? 0 => y:= x->scope => y = 0
  scenarios::BuildDenseSymtab(fx_.image(), 64);
  fx_.Lines("x:= hash[..64] !=? 0 => y:= x->scope => y = 0 ;");
  EXPECT_EQ(fx_.One("#/(hash[..64]->scope ==? 0)"), "64");
}

TEST_P(PaperExamplesTest, FieldAlternation) {
  // gdb> duel hash[1,9]->(scope,name)
  scenarios::BuildSymtab(fx_.image(), {{1, {{"x", 3}}}, {9, {{"abc", 2}}}});
  EXPECT_EQ(fx_.Lines("hash[1,9]->(scope,name)"),
            (std::vector<std::string>{"hash[1]->scope = 3", "hash[1]->name = \"x\"",
                                      "hash[9]->scope = 2", "hash[9]->name = \"abc\""}));
}

TEST_P(PaperExamplesTest, WithConditionalFieldSelection) {
  // x:= hash[..1024] !=? 0 => x->(if (scope > 5) name)
  BuildScope42And529(fx_.image());
  std::vector<std::string> lines =
      fx_.Lines("x:= hash[..1024] !=? 0 => x->(if (scope > 5) name)");
  EXPECT_EQ(lines, (std::vector<std::string>{"x->name = \"deep\"", "x->name = \"deeper\""}));
}

TEST_P(PaperExamplesTest, UnderscoreAvoidsTemporaries) {
  // hash[..1024]->(if (_ && scope > 5) name)
  BuildScope42And529(fx_.image());
  std::vector<std::string> lines = fx_.Lines("hash[..1024]->(if (_ && scope > 5) name)");
  EXPECT_EQ(lines, (std::vector<std::string>{"hash[42]->name = \"deep\"",
                                             "hash[529]->name = \"deeper\""}));
}

TEST_P(PaperExamplesTest, AliasVersusUnderscoreDisplay) {
  // gdb> duel y:= x[..10] => if (y < 0 || y > 100) y
  std::vector<int32_t> x(10, 1);
  x[3] = -9;
  x[8] = 120;
  scenarios::BuildIntArray(fx_.image(), "x", x);
  EXPECT_EQ(fx_.Lines("y:= x[..10] => if (y < 0 || y > 100) y"),
            (std::vector<std::string>{"y = -9", "y = 120"}));
  // gdb> duel x[..10].if (_ < 0 || _ > 100) _
  EXPECT_EQ(fx_.Lines("x[..10].if (_ < 0 || _ > 100) _"),
            (std::vector<std::string>{"x[3] = -9", "x[8] = 120"}));
  // Same effect with aliases and another temporary:
  EXPECT_EQ(fx_.Lines("y:= x[j := ..10] => if (y < 0 || y > 100) x[{j}]"),
            (std::vector<std::string>{"x[3] = -9", "x[8] = 120"}));
}

// --- expansion (-->) -----------------------------------------------------

TEST_P(PaperExamplesTest, ListExpansionScopes) {
  // gdb> duel hash[0]-->next->scope
  scenarios::BuildSymtab(fx_.image(),
                         {{0, {{"a", 4}, {"b", 3}, {"c", 2}, {"d", 1}}}});
  EXPECT_EQ(fx_.Lines("hash[0]-->next->scope"),
            (std::vector<std::string>{
                "hash[0]->scope = 4", "hash[0]->next->scope = 3",
                "hash[0]->next->next->scope = 2", "hash[0]->next->next->next->scope = 1"}));
}

TEST_P(PaperExamplesTest, ListDuplicateSearchOneLiner) {
  // L-->next->(value ==? next-->next->value)
  // 0-based nodes 4 and 9 both hold 27.
  scenarios::BuildList(fx_.image(), "L", {11, 22, 33, 44, 27, 55, 66, 77, 88, 27});
  std::vector<std::string> lines = fx_.Lines("L-->next->(value ==? next-->next->value)");
  ASSERT_EQ(lines.size(), 1u);
  // 4 repeated ->next steps reach the compression threshold.
  EXPECT_EQ(lines[0], "L-->next[[4]]->value = 27");
  EXPECT_EQ(fx_.Lines("L-->next->value[[3,5]]"),
            (std::vector<std::string>{"L-->next[[3]]->value = 44", "L-->next[[5]]->value = 55"}));
}

TEST_P(PaperExamplesTest, TreeKeysPreorder) {
  // gdb> duel root-->(left,right)->key  on the tree (9, (3 (4) (5)), (12)).
  //
  // NOTE: the paper's printed output lists root->left->right before
  // root->left->left, contradicting its own remark that children are stacked
  // "in reverse order so that the nodes are visited in the expected order".
  // We follow the remark (true preorder); see EXPERIMENTS.md.
  scenarios::BuildTree(fx_.image(), "root", "(9 (3 (4) (5)) (12))");
  EXPECT_EQ(fx_.Lines("root-->(left,right)->key"),
            (std::vector<std::string>{"root->key = 9", "root->left->key = 3",
                                      "root->left->left->key = 4",
                                      "root->left->right->key = 5", "root->right->key = 12"}));
}

TEST_P(PaperExamplesTest, TreePathToKey) {
  // gdb> duel root-->(if (key < 5) left else if (key > 5) right)->key
  //
  // NOTE: as printed in the paper, that expression walks RIGHT from the root
  // (9 > 5), yet the paper's output shows the left path 9, 3, 5. The BST
  // descent comparisons are evidently swapped (a typo); we run the corrected
  // expression and reproduce the paper's output. See EXPERIMENTS.md.
  scenarios::BuildTree(fx_.image(), "root", "(9 (3 (4) (5)) (12))");
  EXPECT_EQ(fx_.Lines("root-->(if (key > 5) left else if (key < 5) right)->key"),
            (std::vector<std::string>{"root->key = 9", "root->left->key = 3",
                                      "root->left->right->key = 5"}));
  // The expression exactly as printed in the paper walks the right spine.
  EXPECT_EQ(fx_.Lines("root-->(if (key < 5) left else if (key > 5) right)->key"),
            (std::vector<std::string>{"root->key = 9", "root->right->key = 12"}));
}

TEST_P(PaperExamplesTest, TreeKeyCount) {
  // gdb> duel #/(root-->(left,right)->key)
  scenarios::BuildTree(fx_.image(), "root", "(9 (3 (4) (5)) (12))");
  EXPECT_EQ(fx_.One("#/(root-->(left,right)->key)"), "5");
}

TEST_P(PaperExamplesTest, SortednessViolation) {
  // gdb> duel hash[..1024]-->next-> if (next) scope <? next->scope
  std::map<size_t, std::vector<scenarios::SymEntry>> chains;
  // Sorted chains everywhere...
  chains[3] = {{"s0", 9}, {"s1", 5}, {"s2", 2}};
  chains[700] = {{"t0", 4}, {"t1", 1}};
  // ...except bucket 287, where the 9th element (depth 8) violates order.
  std::vector<scenarios::SymEntry> bad;
  int32_t scopes[] = {13, 12, 11, 10, 9, 8, 7, 6, 5, 6};
  for (size_t i = 0; i < 10; ++i) {
    bad.push_back({"u" + std::to_string(i), scopes[i]});
  }
  chains[287] = bad;
  scenarios::BuildSymtab(fx_.image(), chains, 1024);
  EXPECT_EQ(fx_.Lines("hash[..1024]-->next-> if (next) scope <? next->scope"),
            (std::vector<std::string>{"hash[287]-->next[[8]]->scope = 5"}));
}

TEST_P(PaperExamplesTest, SelectOnComputedSequence) {
  // gdb> duel ((1..9)*(1..9))[[52,74]]
  EXPECT_EQ(fx_.Lines("((1..9)*(1..9))[[52,74]]"),
            (std::vector<std::string>{"6*8 = 48", "9*3 = 27"}));
}

TEST_P(PaperExamplesTest, SelectOnListValues) {
  // gdb> duel head-->next->value[[3,5]]
  scenarios::BuildList(fx_.image(), "head", {1, 2, 3, 33, 4, 29});
  EXPECT_EQ(fx_.Lines("head-->next->value[[3,5]]"),
            (std::vector<std::string>{"head-->next[[3]]->value = 33",
                                      "head-->next[[5]]->value = 29"}));
}

TEST_P(PaperExamplesTest, DuplicateSearchWithIndexAliases) {
  // gdb> duel L-->next#i->value ==? L-->next#j->value =>
  //        if (i < j) L-->next[[i,j]]->value
  scenarios::BuildList(fx_.image(), "L", {11, 22, 33, 44, 27, 55, 66, 77, 88, 27});
  EXPECT_EQ(fx_.Lines("L-->next#i->value ==? L-->next#j->value => "
                      "if (i < j) L-->next[[i,j]]->value"),
            (std::vector<std::string>{"L-->next[[4]]->value = 27",
                                      "L-->next[[9]]->value = 27"}));
}

TEST_P(PaperExamplesTest, UntilStopsAtTerminator) {
  // s[0..999]@(_=='\0') produces s[0], s[1], ... up to the NUL.
  target::ImageBuilder b(fx_.image());
  target::Addr s = b.Global("s", b.Ptr(b.Char()));
  b.PokePtr(s, b.String("ab"));
  EXPECT_EQ(fx_.Lines("s[0..999]@(_=='\\0')"),
            (std::vector<std::string>{"s[0] = 'a'", "s[1] = 'b'"}));
}

TEST_P(PaperExamplesTest, ArgvStrings) {
  // "argv[0..]@0 generates the strings in argv"
  scenarios::BuildArgv(fx_.image(), {"prog", "-v", "input.c"});
  EXPECT_EQ(fx_.Lines("argv[0..]@0"),
            (std::vector<std::string>{"argv[0] = \"prog\"", "argv[1] = \"-v\"",
                                      "argv[2] = \"input.c\""}));
}

// --- Implementation section -----------------------------------------------

TEST_P(PaperExamplesTest, IllegalMemoryReferenceReport) {
  // ptr[..99]->val style fault: the report names the offending operand
  // symbolically (paper: "Illegal memory reference in x of x->y:
  // ptr[48] = lvalue 0x16820.").
  target::ImageBuilder b(fx_.image());
  b.Struct("T").Field("val", b.Int()).Build();
  target::TypeRef t = fx_.image().types().LookupStruct("T");
  target::Addr ptr = b.Global("ptr", b.Arr(b.Ptr(t), 100));
  for (size_t i = 0; i < 100; ++i) {
    target::Addr node = b.Alloc(t);
    b.PokeI32(node, static_cast<int32_t>(i));
    b.PokePtr(ptr + i * 8, node);
  }
  b.PokePtr(ptr + 48 * 8, 0x16820);  // dangling, non-null
  std::string err = fx_.Error("ptr[..99]->val");
  EXPECT_NE(err.find("Illegal memory reference"), std::string::npos) << err;
  EXPECT_NE(err.find("0x16820"), std::string::npos) << err;
}

TEST_P(PaperExamplesTest, HeadlineQueryTenThousand) {
  // "x[..10000] >? 0 compiles and executes in about 5 seconds on a
  // DECStation 5000" — here we only check it runs and finds the positives.
  std::vector<int32_t> x(10000, -1);
  x[1234] = 5;
  x[9876] = 17;
  scenarios::BuildIntArray(fx_.image(), "x", x);
  EXPECT_EQ(fx_.Lines("x[..10000] >? 0"),
            (std::vector<std::string>{"x[1234] = 5", "x[9876] = 17"}));
}

TEST_P(PaperExamplesTest, LookupHeavyRange) {
  // "most of the time in evaluating 1..100+i goes to the 100 lookups of i"
  fx_.Lines("i := 5 ;");
  EXPECT_EQ(fx_.One("#/(1..100+i)"), "105");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, PaperExamplesTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
