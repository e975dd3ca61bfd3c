// Per-operator generator semantics, following the paper's Semantics section
// pseudo-code.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class OperatorTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  OperatorTest() : fx_(ConfigOptions(GetParam())) {}

  DuelFixture fx_;
};

TEST_P(OperatorTest, ToProducesInclusiveRange) {
  EXPECT_EQ(fx_.Lines("1..4"), (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST_P(OperatorTest, ToEmptyWhenLowAboveHigh) {
  EXPECT_TRUE(fx_.Lines("5..4").empty());
}

TEST_P(OperatorTest, ToWithGeneratorOperands) {
  // The paper: (to (alternate 1 5) (alternate 5 10)) produces four runs.
  std::vector<std::string> lines = fx_.Lines("(1,5)..(5,10)");
  std::vector<std::string> expected;
  for (int i = 1; i <= 5; ++i) expected.push_back(std::to_string(i));
  for (int i = 1; i <= 10; ++i) expected.push_back(std::to_string(i));
  expected.push_back("5");
  for (int i = 5; i <= 10; ++i) expected.push_back(std::to_string(i));
  EXPECT_EQ(lines, expected);
}

TEST_P(OperatorTest, PrefixToIsZeroToNMinusOne) {
  EXPECT_EQ(fx_.Lines("..3"), (std::vector<std::string>{"0", "1", "2"}));
}

TEST_P(OperatorTest, AlternateConcatenates) {
  EXPECT_EQ(fx_.Lines("(1,2),7"), (std::vector<std::string>{"1", "2", "7"}));
}

TEST_P(OperatorTest, PlusOverAllCombinations) {
  // The paper: (1..3)+(5,9) prints 6 10 7 11 8 12.
  std::vector<std::string> lines = fx_.Lines("(1..3)+(5,9)");
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "1+5 = 6");
  EXPECT_EQ(lines[1], "1+9 = 10");
  EXPECT_EQ(lines[2], "2+5 = 7");
  EXPECT_EQ(lines[3], "2+9 = 11");
  EXPECT_EQ(lines[4], "3+5 = 8");
  EXPECT_EQ(lines[5], "3+9 = 12");
}

TEST_P(OperatorTest, PaperSyntaxSectionExamples) {
  // gdb> duel (1,2,5)*4+(10,200) and (3,11)+(5..7)
  std::vector<std::string> a = fx_.Lines("(1,2,5)*4+(10,200)");
  std::vector<std::string> values;
  for (const std::string& line : a) {
    values.push_back(line.substr(line.find(" = ") + 3));
  }
  EXPECT_EQ(values, (std::vector<std::string>{"14", "204", "18", "208", "30", "220"}));

  std::vector<std::string> b = fx_.Lines("(3,11)+(5..7)");
  values.clear();
  for (const std::string& line : b) {
    values.push_back(line.substr(line.find(" = ") + 3));
  }
  EXPECT_EQ(values, (std::vector<std::string>{"8", "9", "10", "16", "17", "18"}));
}

// Enum operands promote like the C integers they are, for `~` and as the
// integer side of C's commutative subscript.
TEST_P(OperatorTest, EnumOperandsPromoteLikeIntegers) {
  target::TypeRef color =
      fx_.image().types().DefineEnum("color", {{"RED", 0}, {"GREEN", 1}, {"BLUE", 2}});
  target::ImageBuilder b(fx_.image());
  b.PokeScalar(b.Global("c", color), color, 2);
  scenarios::BuildIntArray(fx_.image(), "x", {4, 9, 2, 8});
  EXPECT_EQ(fx_.One("~c"), "~c = -3");
  EXPECT_EQ(fx_.One("c[x]"), "c[x] = 2");
  EXPECT_EQ(fx_.One("GREEN[x]"), "GREEN[x] = 9");
}

TEST_P(OperatorTest, FilterYieldsLeftOperand) {
  scenarios::BuildIntArray(fx_.image(), "x", {4, 9, 2, 8});
  EXPECT_EQ(fx_.Lines("x[..4] >? 5"), (std::vector<std::string>{"x[1] = 9", "x[3] = 8"}));
}

TEST_P(OperatorTest, FilterChainsComposeLikeBetween) {
  scenarios::BuildIntArray(fx_.image(), "x", {4, 9, 2, 8, 6});
  EXPECT_EQ(fx_.Lines("x[..5] >? 5 <? 8"), (std::vector<std::string>{"x[4] = 6"}));
}

TEST_P(OperatorTest, FilterAgainstGeneratorMatchesAnyCombination) {
  // x ==? (6..9): yields x once per matching right value.
  EXPECT_EQ(fx_.Lines("7 ==? (6..9)"), (std::vector<std::string>{"7"}));
  EXPECT_TRUE(fx_.Lines("5 ==? (6..9)").empty());
}

TEST_P(OperatorTest, CEqualityKeepsCSemantics) {
  scenarios::BuildIntArray(fx_.image(), "x", {0, 5, 7, 7});
  std::vector<std::string> lines = fx_.Lines("x[1..3] == 7");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "x[1]==7 = 0");
  EXPECT_EQ(lines[1], "x[2]==7 = 1");
  EXPECT_EQ(lines[2], "x[3]==7 = 1");
}

TEST_P(OperatorTest, ImplyYieldsRightPerLeftValue) {
  std::vector<std::string> lines = fx_.Lines("i := 1..3 => {i} + 4");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "1+4 = 5");
  EXPECT_EQ(lines[1], "2+4 = 6");
  EXPECT_EQ(lines[2], "3+4 = 7");
}

TEST_P(OperatorTest, SequenceDiscardsLeft) {
  // The paper: i := 1..3; i + 4 prints only i+4 = 7 (i left at 3).
  std::vector<std::string> lines = fx_.Lines("i := 1..3; i + 4");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "i+4 = 7");
}

TEST_P(OperatorTest, TrailingSemicolonSuppressesOutput) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3});
  EXPECT_TRUE(fx_.Lines("x[..3] = 0 ;").empty());
  EXPECT_EQ(fx_.Lines("x[..3]"),
            (std::vector<std::string>{"x[0] = 0", "x[1] = 0", "x[2] = 0"}));
}

TEST_P(OperatorTest, AssignmentOverGeneratedLvalues) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3, 4});
  fx_.Lines("x[0..3] = 9 ;");
  EXPECT_EQ(fx_.One("+/x[..4]"), "36");
}

TEST_P(OperatorTest, CompoundAssignment) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3});
  fx_.Lines("x[..3] += 10 ;");
  EXPECT_EQ(fx_.One("+/x[..3]"), "36");
}

TEST_P(OperatorTest, IfWithoutElseFiltersFalseValues) {
  std::vector<std::string> lines = fx_.Lines("i := ..9 => if (i%3 == 0) {i}*5");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "0*5 = 0");
  EXPECT_EQ(lines[1], "3*5 = 15");
  EXPECT_EQ(lines[2], "6*5 = 30");
}

TEST_P(OperatorTest, IfElseSelectsBranch) {
  EXPECT_EQ(fx_.Lines("i := (0,1) => if (i) 10 else 20"),
            (std::vector<std::string>{"20", "10"}));
}

TEST_P(OperatorTest, TernaryBehavesLikeIfElse) {
  EXPECT_EQ(fx_.Lines("i := (0,1) => i ? 10 : 20"), (std::vector<std::string>{"20", "10"}));
}

TEST_P(OperatorTest, AndAndYieldsRightValuesPerTruthyLeft) {
  // e1 && e2 produces all of e2's values for each non-zero value of e1.
  EXPECT_EQ(fx_.Lines("(0,2,0,3) && (7,8)"),
            (std::vector<std::string>{"7", "8", "7", "8"}));
}

TEST_P(OperatorTest, OrOrYieldsLeftWhenTruthyElseRight) {
  EXPECT_EQ(fx_.Lines("(0,2) || (7,8)"), (std::vector<std::string>{"7", "8", "2"}));
}

TEST_P(OperatorTest, WhileLoopsOverBody) {
  std::vector<std::string> lines =
      fx_.Lines("int i; i = 0; while (i < 3) (i = i + 1; {i} * 10)");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "1*10 = 10");
  EXPECT_EQ(lines[2], "3*10 = 30");
}

TEST_P(OperatorTest, ForAsGenerator) {
  std::vector<std::string> lines = fx_.Lines("int i; for (i = 0; i < 9; i++) 4 + if (i%3 == 0) {i}*5");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "4+0*5 = 4");
  EXPECT_EQ(lines[1], "4+3*5 = 19");
  EXPECT_EQ(lines[2], "4+6*5 = 34");
}

TEST_P(OperatorTest, SelectPicksZeroBasedElements) {
  // The paper: ((1..9)*(1..9))[[52,74]] -> 6*8 = 48, 9*3 = 27.
  std::vector<std::string> lines = fx_.Lines("((1..9)*(1..9))[[52,74]]");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "6*8 = 48");
  EXPECT_EQ(lines[1], "9*3 = 27");
}

TEST_P(OperatorTest, SelectOutOfRangeProducesNothing) {
  EXPECT_TRUE(fx_.Lines("(1..3)[[7]]").empty());
}

TEST_P(OperatorTest, CountReduction) {
  EXPECT_EQ(fx_.One("#/(1..10)"), "10");
  EXPECT_EQ(fx_.One("#/((1..4) >? 2)"), "2");
}

TEST_P(OperatorTest, SumReduction) {
  EXPECT_EQ(fx_.One("+/(1..10)"), "55");
  EXPECT_EQ(fx_.One("+/(1..0)"), "0");  // empty sum
}

TEST_P(OperatorTest, AllAnyReductions) {
  EXPECT_EQ(fx_.One("&&/(1..5)"), "1");
  EXPECT_EQ(fx_.One("&&/(0..5)"), "0");
  EXPECT_EQ(fx_.One("||/(0,0,3)"), "1");
  EXPECT_EQ(fx_.One("||/(0,0)"), "0");
}

TEST_P(OperatorTest, SequenceEquality) {
  EXPECT_EQ(fx_.One("(1..3) === (1,2,3)"), "1");
  EXPECT_EQ(fx_.One("(1..3) === (1,2)"), "0");
  EXPECT_EQ(fx_.One("(1..3) === (1,2,4)"), "0");
}

TEST_P(OperatorTest, UntilWithConstant) {
  scenarios::BuildIntArray(fx_.image(), "x", {5, 6, 0, 7});
  EXPECT_EQ(fx_.Lines("x[0..3]@0"), (std::vector<std::string>{"x[0] = 5", "x[1] = 6"}));
}

TEST_P(OperatorTest, UntilWithPredicate) {
  scenarios::BuildIntArray(fx_.image(), "x", {5, 6, 9, 7});
  EXPECT_EQ(fx_.Lines("x[0..3]@(_ > 8)"), (std::vector<std::string>{"x[0] = 5", "x[1] = 6"}));
}

TEST_P(OperatorTest, UntilOnStrings) {
  target::ImageBuilder b(fx_.image());
  target::Addr s = b.Global("s", b.Ptr(b.Char()));
  b.PokePtr(s, b.String("hi!"));
  std::vector<std::string> lines = fx_.Lines("s[0..999]@('\\0')");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "s[0] = 'h'");
  EXPECT_EQ(lines[2], "s[2] = '!'");
}

TEST_P(OperatorTest, IndexAliasTracksPosition) {
  scenarios::BuildIntArray(fx_.image(), "x", {7, 5, 7});
  std::vector<std::string> lines = fx_.Lines("x[..3]#k ==? 7 => {k}");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "0");
  EXPECT_EQ(lines[1], "2");
}

TEST_P(OperatorTest, DefineAliasesLvalues) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3, 4, 5, 6});
  // After (define b x[5]), changing b changes x[5].
  fx_.Lines("b := x[5] ;");
  fx_.Lines("b = 99 ;");
  EXPECT_EQ(fx_.One("{x[5]}"), "99");
}

TEST_P(OperatorTest, DefineYieldsEachValueWithAliasName) {
  std::vector<std::string> lines = fx_.Lines("y := (4,5)");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "y = 4");
  EXPECT_EQ(lines[1], "y = 5");
}

TEST_P(OperatorTest, DeclarationsCreateZeroedVariables) {
  EXPECT_EQ(fx_.One("int i; {i}"), "0");
  std::vector<std::string> two = fx_.Lines("int a, b; a = 3; b = 4; {a + b}");
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(two[0], "7");
}

TEST_P(OperatorTest, WithOpensStructScope) {
  scenarios::BuildSymtab(fx_.image(),
                         {{1, {{"x", 3}}}, {9, {{"abc", 2}}}});
  std::vector<std::string> lines = fx_.Lines("hash[1,9]->(scope,name)");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "hash[1]->scope = 3");
  EXPECT_EQ(lines[1], "hash[1]->name = \"x\"");
  EXPECT_EQ(lines[2], "hash[9]->scope = 2");
  EXPECT_EQ(lines[3], "hash[9]->name = \"abc\"");
}

TEST_P(OperatorTest, UnderscoreDenotesWithSubject) {
  scenarios::BuildIntArray(fx_.image(), "x", {5, -9, 3, 120});
  std::vector<std::string> lines = fx_.Lines("x[..4].if (_ < 0 || _ > 100) _");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "x[1] = -9");
  EXPECT_EQ(lines[1], "x[3] = 120");
}

TEST_P(OperatorTest, ScopeDoesNotLeakAcrossOperands) {
  // While the left with is suspended, its scope must not be visible to the
  // right operand: `scope` is only defined inside hash[1]->(...).
  scenarios::BuildSymtab(fx_.image(), {{1, {{"x", 3}}}});
  QueryResult r = fx_.session().Query("hash[1]->(scope) + scope");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown name"), std::string::npos);
}

TEST_P(OperatorTest, CallsIterateAllArgumentCombinations) {
  std::vector<std::string> lines = fx_.Lines("printf(\"%d %d, \", (3,4), 5..7) ;");
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(fx_.image().TakeOutput(), "3 5, 3 6, 3 7, 4 5, 4 6, 4 7, ");
}

TEST_P(OperatorTest, SizeofBehaves) {
  scenarios::BuildSymtab(fx_.image(), {{0, {{"a", 1}}}});
  EXPECT_EQ(fx_.One("{sizeof(int)}"), "4");
  EXPECT_EQ(fx_.One("{sizeof(struct symbol *)}"), "8");
  EXPECT_EQ(fx_.One("{sizeof(struct symbol)}"), "24");
  EXPECT_EQ(fx_.One("{sizeof 1.5}"), "8");
}

TEST_P(OperatorTest, CastsBehave) {
  EXPECT_EQ(fx_.One("1 + (double)3/2"), "1+(double)3/2 = 2.5");
  EXPECT_EQ(fx_.One("(char)65"), "(char)65 = 'A'");
  EXPECT_EQ(fx_.One("(unsigned char)(-1)"), "(unsigned char)-1 = '\\377'");
}

TEST_P(OperatorTest, IncDecOnAliases) {
  EXPECT_EQ(fx_.One("int i; i = 5; i++"), "i++ = 5");
  EXPECT_EQ(fx_.One("int j; j = 5; ++j; {j}"), "6");
}

TEST_P(OperatorTest, BraceSubstitutesValueInSymbolic) {
  std::vector<std::string> plain = fx_.Lines("int i; for (i = 0; i < 9; i++) 4 + if (i%3==0) i*5");
  ASSERT_EQ(plain.size(), 3u);
  EXPECT_EQ(plain[0], "4+i*5 = 4");  // "i" not substituted without braces
  EXPECT_EQ(plain[1], "4+i*5 = 19");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, OperatorTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
