// The assertion facility (paper Discussion: "complex assertions, e.g.,
// 'x[0] through x[n] are positive', often need non-trivial code" — in DUEL
// they are one-liners).

#include "src/duel/assertions.h"

#include <gtest/gtest.h>

#include "src/exec/debugger.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

class AssertionsTest : public ::testing::Test {
 protected:
  DuelFixture fx_;
};

TEST_F(AssertionsTest, PaperExampleAllPositive) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3, 4, 5});
  AssertionOutcome o = CheckAssertion(fx_.session(), "positive", "x[..5] > 0");
  EXPECT_TRUE(o.holds);
  EXPECT_EQ(o.values_checked, 5u);
}

TEST_F(AssertionsTest, FailureListsOffendingValues) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, -2, 3, 0, 5});
  AssertionOutcome o = CheckAssertion(fx_.session(), "positive", "x[..5] > 0");
  EXPECT_FALSE(o.holds);
  ASSERT_EQ(o.failures.size(), 2u);
  EXPECT_EQ(o.failures[0], "x[1]>0 = 0");
  EXPECT_EQ(o.failures[1], "x[3]>0 = 0");

  // Falsity is C's, whatever the value prints as.
  for (const char* expr : {"-0.0", "(int*)0", "(char)0", "x[3]"}) {
    AssertionOutcome z = CheckAssertion(fx_.session(), "zero", expr);
    EXPECT_FALSE(z.holds) << expr;
    EXPECT_EQ(z.failures.size(), 1u) << expr;
  }
}

TEST_F(AssertionsTest, EmptySequenceHoldsVacuously) {
  scenarios::BuildIntArray(fx_.image(), "x", {1});
  AssertionOutcome o = CheckAssertion(fx_.session(), "vacuous", "x[1..0] > 0");
  EXPECT_TRUE(o.holds);
  EXPECT_EQ(o.values_checked, 0u);
}

TEST_F(AssertionsTest, EvaluationErrorsFail) {
  AssertionOutcome o = CheckAssertion(fx_.session(), "bad", "nosuch > 0");
  EXPECT_FALSE(o.holds);
  ASSERT_EQ(o.failures.size(), 1u);
  EXPECT_NE(o.failures[0].find("unknown name"), std::string::npos);
}

TEST_F(AssertionsTest, StructuralInvariants) {
  scenarios::BuildList(fx_.image(), "L", {9, 7, 5, 2});
  scenarios::BuildTree(fx_.image(), "root", "(9 (3 (4) (5)) (12))");
  AssertionSet set;
  set.Add("list_decreasing", "L-->next->(if (next) value > next->value else 1)");
  set.Add("tree_keys_positive", "root-->(left,right)->key > 0");
  set.Add("list_nonempty", "#/(L-->next) != 0");
  std::vector<AssertionOutcome> outcomes = set.CheckAll(fx_.session());
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].holds);
  EXPECT_TRUE(outcomes[1].holds);
  EXPECT_TRUE(outcomes[2].holds);

  fx_.Lines("L->next->value = 100 ;");  // break the ordering
  outcomes = set.CheckAll(fx_.session());
  EXPECT_FALSE(outcomes[0].holds);
  EXPECT_TRUE(outcomes[1].holds);
}

TEST_F(AssertionsTest, ReportFormat) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, -1});
  AssertionSet set;
  set.Add("pos", "x[..2] > 0");
  set.Add("count", "#/x[..2] == 2");
  std::string report = AssertionSet::Report(set.CheckAll(fx_.session()));
  EXPECT_NE(report.find("[FAIL] pos"), std::string::npos) << report;
  EXPECT_NE(report.find("[PASS] count"), std::string::npos) << report;
  std::string failures_only =
      AssertionSet::Report(set.CheckAll(fx_.session()), /*only_failures=*/true);
  EXPECT_EQ(failures_only.find("[PASS]"), std::string::npos) << failures_only;
}

TEST_F(AssertionsTest, DebuggerStopsOnViolationTransition) {
  scenarios::BuildIntArray(fx_.image(), "a", {1, 1, 1, 1});
  exec::TargetProgram program = exec::TargetProgram::Parse(
      {
          "a[0] = 5;",
          "a[2] = 0 - 1;",  // violates
          "a[3] = 7;",      // still violated: no new stop
          "a[2] = 2;",      // holds again
          "a[1] = 0 - 9;",  // violates again -> stops again
      },
      fx_.image());
  exec::Debugger dbg(fx_.image(), fx_.backend(), program);
  int idx = dbg.AddAssertion("all_positive", "a[..4] > 0");

  exec::StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, exec::StopReason::kAssertion);
  EXPECT_EQ(s.line, 1u);
  EXPECT_NE(s.detail.find("all_positive"), std::string::npos) << s.detail;

  s = dbg.Continue();
  EXPECT_EQ(s.reason, exec::StopReason::kAssertion);
  EXPECT_EQ(s.line, 4u);
  EXPECT_EQ(dbg.Continue().reason, exec::StopReason::kFinished);
  EXPECT_EQ(dbg.AssertionViolations(idx), 2u);
}

}  // namespace
}  // namespace duel
