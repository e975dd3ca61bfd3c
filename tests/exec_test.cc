// The execution substrate: stepping a target program, DUEL-conditioned
// breakpoints, watchpoints on DUEL expressions (the paper's Discussion
// facilities).

#include "src/exec/debugger.h"

#include <gtest/gtest.h>

#include "src/exec/program.h"
#include "tests/duel_test_util.h"

namespace duel::exec {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  ExecTest() {
    scenarios::BuildIntArray(fx_.image(), "x", std::vector<int32_t>(10, 0));
  }

  Debugger MakeDebugger(const std::vector<std::string>& lines, SessionOptions opts = {}) {
    programs_.push_back(
        std::make_unique<TargetProgram>(TargetProgram::Parse(lines, fx_.image())));
    return Debugger(fx_.image(), fx_.backend(), *programs_.back(), opts);
  }

  DuelFixture fx_;
  std::vector<std::unique_ptr<TargetProgram>> programs_;
};

TEST_F(ExecTest, StepsThroughAProgram) {
  Debugger dbg = MakeDebugger({
      "int i;",
      "i = 0;",
      "for (i = 0; i < 10; i++) x[i] = i * i;",
  });
  EXPECT_EQ(dbg.Step().reason, StopReason::kStep);
  EXPECT_EQ(dbg.Step().reason, StopReason::kStep);
  EXPECT_EQ(dbg.Step().reason, StopReason::kStep);
  EXPECT_EQ(dbg.Step().reason, StopReason::kFinished);
  EXPECT_EQ(dbg.duel().Query("+/x[..10]").lines[0], "285");
}

TEST_F(ExecTest, CommentAndBlankLinesAreNoOps) {
  Debugger dbg = MakeDebugger({
      "## set things up",
      "",
      "x[0] = 42;",
  });
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kFinished);
  EXPECT_EQ(dbg.duel().Query("{x[0]}").lines[0], "42");
}

TEST_F(ExecTest, UnconditionalBreakpoint) {
  Debugger dbg = MakeDebugger({
      "x[0] = 1;",
      "x[1] = 2;",
      "x[2] = 3;",
  });
  dbg.AddBreakpoint(1);
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kBreakpoint);
  EXPECT_EQ(s.line, 1u);
  // At the stop: line 1 not yet executed.
  EXPECT_EQ(dbg.duel().Query("{x[1]}").lines[0], "0");
  s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kFinished);
  EXPECT_EQ(dbg.duel().Query("{x[1]}").lines[0], "2");
  EXPECT_EQ(dbg.BreakpointHits(0), 1u);
}

TEST_F(ExecTest, ConditionalBreakpointWithGeneratorOneLiner) {
  // Stop in the loop only when some element of x became negative.
  Debugger dbg = MakeDebugger({
      "int i;",
      "for (i = 0; i < 5; i++) x[i] = 5 - i;",
      "x[7] = 0 - 3;",   // the bug
      "x[8] = 1;",
  });
  dbg.AddBreakpoint(2, "x[..10] <? 0");  // any negative element?
  dbg.AddBreakpoint(3, "x[..10] <? 0");
  // Conditions whose every value is false by C's rule never fire, however
  // the value prints: a null pointer, '\0', -0.0, a list's null tail.
  scenarios::BuildList(fx_.image(), "L", {5, 3, 8});
  const char* kFalse[] = {"(int*)0", "(char)0", "-0.0", "L-->next->next ==? 0"};
  for (const char* cond : kFalse) {
    dbg.AddBreakpoint(2, cond);
  }
  StopInfo s = dbg.Continue();
  // Line 2's breakpoint doesn't fire (no negatives yet)...
  EXPECT_EQ(s.reason, StopReason::kBreakpoint);
  EXPECT_EQ(s.line, 3u);  // ...but line 3's does, after the bug ran.
  EXPECT_EQ(dbg.duel().Query("x[..10] <? 0").lines[0], "x[7] = -3");
  EXPECT_EQ(dbg.BreakpointHits(0), 0u);
  EXPECT_EQ(dbg.BreakpointHits(1), 1u);
  for (size_t i = 0; i < std::size(kFalse); ++i) {
    EXPECT_EQ(dbg.BreakpointHits(static_cast<int>(2 + i)), 0u) << kFalse[i];
  }
}

TEST_F(ExecTest, WatchpointFiresOnScalarChange) {
  Debugger dbg = MakeDebugger({
      "x[3] = 0;",
      "x[4] = 9;",
      "x[3] = 7;",
      "x[5] = 1;",
  });
  dbg.AddWatchpoint("x[3]");
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kWatchpoint);
  EXPECT_EQ(s.line, 2u);  // the statement that changed x[3]
  EXPECT_NE(s.detail.find("x[3]"), std::string::npos) << s.detail;
  EXPECT_EQ(dbg.Continue().reason, StopReason::kFinished);
  EXPECT_EQ(dbg.WatchpointFires(0), 1u);
}

TEST_F(ExecTest, WatchpointOnASequence) {
  // Watch the *set of positive elements*: a DUEL query, not an address.
  Debugger dbg = MakeDebugger({
      "x[1] = 0;",   // no change in the watched sequence
      "x[2] = 5;",   // adds a positive element -> fires
      "x[2] = 6;",   // changes it -> fires
  });
  dbg.AddWatchpoint("x[..10] >? 0");
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kWatchpoint);
  EXPECT_EQ(s.line, 1u);
  EXPECT_NE(s.detail.find("0 -> 1 values"), std::string::npos) << s.detail;
  s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kWatchpoint);
  EXPECT_EQ(s.line, 2u);
  EXPECT_EQ(dbg.Continue().reason, StopReason::kFinished);
}

TEST_F(ExecTest, WatchpointOnListStructure) {
  scenarios::BuildList(fx_.image(), "L", {1, 2, 3});
  Debugger dbg = MakeDebugger({
      "x[0] = 1;",
      "L->next->value = 99;",
  });
  dbg.AddWatchpoint("L-->next->value");
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kWatchpoint);
  EXPECT_EQ(s.line, 1u);
  EXPECT_NE(s.detail.find("99"), std::string::npos) << s.detail;
}

TEST_F(ExecTest, ProgramFaultStopsWithReport) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef t = b.Struct("T").Field("v", b.Int()).Build();
  target::Addr p = b.Global("p", b.Ptr(t));
  b.PokePtr(p, 0);
  Debugger dbg = MakeDebugger({
      "x[0] = 1;",
      "p->v = 5;",  // null deref
  });
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kError);
  EXPECT_EQ(s.line, 1u);
  EXPECT_NE(s.detail.find("line 2"), std::string::npos) << s.detail;
}

TEST_F(ExecTest, RewindReRunsAgainstCurrentMemory) {
  Debugger dbg = MakeDebugger({"x[0] = x[0] + 1;"});
  EXPECT_EQ(dbg.Continue().reason, StopReason::kFinished);
  dbg.Rewind();
  EXPECT_EQ(dbg.Continue().reason, StopReason::kFinished);
  EXPECT_EQ(dbg.duel().Query("{x[0]}").lines[0], "2");
}

TEST_F(ExecTest, GuardEvalsAreCounted) {
  Debugger dbg = MakeDebugger({
      "x[0] = 1;",
      "x[1] = 2;",
  });
  dbg.AddWatchpoint("+/x[..10]");
  dbg.AddBreakpoint(1, "0");  // never fires, but evaluates
  while (dbg.Continue().reason != StopReason::kFinished) {
  }
  EXPECT_GE(dbg.guard_evals(), 3u);  // 2 watchpoint evals + 1 condition
}

TEST_F(ExecTest, AddressWatchFiresOnByteChange) {
  target::Addr x = fx_.image().symbols().FindVariable("x")->addr;
  Debugger dbg = MakeDebugger({
      "x[1] = 5;",
      "x[2] = 7;",   // watched
      "x[3] = 9;",
  });
  dbg.AddAddressWatch(x + 8, 4);  // &x[2]
  StopInfo s = dbg.Continue();
  EXPECT_EQ(s.reason, StopReason::kWatchpoint);
  EXPECT_EQ(s.line, 1u);
  EXPECT_NE(s.detail.find("address watch"), std::string::npos) << s.detail;
  EXPECT_EQ(dbg.Continue().reason, StopReason::kFinished);
  EXPECT_EQ(dbg.AddressWatchFires(0), 1u);
}

TEST_F(ExecTest, DisplaysRenderAtStops) {
  Debugger dbg = MakeDebugger({
      "x[0] = 5;",
      "x[0] = 6;",
  });
  dbg.AddDisplay("x[0]");
  dbg.AddDisplay("+/x[..10]");
  dbg.AddDisplay("nosuchvar");
  dbg.Step();
  std::vector<std::string> lines = dbg.RenderDisplays();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "0: x[0] = x[0] = 5");
  EXPECT_EQ(lines[1], "1: +/x[..10] = 5");
  EXPECT_NE(lines[2].find("unknown name"), std::string::npos) << lines[2];
}

// The "..." that ends a truncated result is not a value: the display counts
// and shows values only, and says that it was cut.
TEST_F(ExecTest, TruncatedDisplayCountsValuesOnly) {
  SessionOptions opts;
  opts.max_output_values = 3;
  Debugger dbg = MakeDebugger({"int i;", "for (i = 0; i < 10; i++) x[i] = i + 1;"}, opts);
  dbg.AddDisplay("x[..10]");
  dbg.AddDisplay("x[..2]");
  dbg.Step();
  dbg.Step();
  std::vector<std::string> lines = dbg.RenderDisplays();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "0: x[..10] = (3 values) x[0] = 1 ... x[2] = 3 (truncated)");
  EXPECT_EQ(lines[1], "1: x[..2] = (2 values) x[0] = 1 ... x[1] = 2");
}

TEST_F(ExecTest, ParseErrorsNameTheLine) {
  try {
    TargetProgram::Parse({"x[0] = 1;", "x[1] = ;"}, fx_.image());
    FAIL() << "expected a parse error";
  } catch (const DuelError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST_F(ExecTest, BreakpointLineOutOfRange) {
  Debugger dbg = MakeDebugger({"x[0] = 1;"});
  EXPECT_THROW(dbg.AddBreakpoint(5), DuelError);
}

}  // namespace
}  // namespace duel::exec
