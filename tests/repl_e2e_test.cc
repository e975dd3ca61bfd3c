// End-to-end test of the debugger_repl binary itself: drive the real
// executable through a shell pipe and golden-check its output. This is the
// closest thing to a user session the suite runs.

#include <cstdio>

#include <gtest/gtest.h>

#include <string>

namespace {

std::string RunRepl(const std::string& script, const std::string& args = "") {
  std::string command = "printf '" + script + "' | " + REPL_BINARY + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  char buf[512];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  int status = pclose(pipe);
  EXPECT_EQ(status, 0) << out;
  return out;
}

TEST(ReplE2ETest, DuelQueriesAgainstBuiltInDebuggee) {
  std::string out = RunRepl("duel arr[..10] >? 5\\nduel L-->next->value ==? 27\\nquit\\n");
  EXPECT_NE(out.find("arr[5] = 9"), std::string::npos) << out;
  EXPECT_NE(out.find("L->next->value = 27"), std::string::npos) << out;
}

TEST(ReplE2ETest, ScenarioFileSession) {
  std::string out = RunRepl(
      "duel bucket287-->next-> if (next) scope <? next->scope\\n"
      "duel #/(hash[..1024] !=? 0)\\n"
      "quit\\n",
      SCENARIO_FILE);
  EXPECT_NE(out.find("bucket287-->next[[8]]->scope = 5"), std::string::npos) << out;
  EXPECT_NE(out.find("1"), std::string::npos) << out;  // hash[0] = &s00
}

TEST(ReplE2ETest, BaselinePrintAndMi) {
  std::string out = RunRepl(
      "print 6*7\\n"
      "mi -duel-evaluate \"1..3\"\\n"
      "quit\\n");
  EXPECT_NE(out.find("42"), std::string::npos) << out;
  EXPECT_NE(out.find("^done,values=[{sym=\"1\",value=\"1\"}"), std::string::npos) << out;
}

TEST(ReplE2ETest, RemoteModeMatchesLocal) {
  std::string out = RunRepl(
      "duel +/arr[..10]\\n"
      "remote on\\n"
      "duel +/arr[..10]\\n"
      "quit\\n");
  // The sum appears twice, identically.
  size_t first = out.find("17");  // sum of the built-in arr
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find("17", first + 1), std::string::npos) << out;
}

TEST(ReplE2ETest, HistoryRecall) {
  std::string out = RunRepl("duel 2+3\\n!!\\nhistory\\nquit\\n");
  // The re-run prints the query and its value again.
  EXPECT_NE(out.find("duel 2+3"), std::string::npos) << out;
  EXPECT_NE(out.find("0  2+3"), std::string::npos) << out;
}

TEST(ReplE2ETest, ProgramSteppingWorkflow) {
  std::string out = RunRepl(
      "program " PROGRAM_FILE "\n"
      "break 4 x[..10] >? 30\n"
      "watch x[..9]#k >? x[k+1]\n"
      "continue\n"
      "continue\n"
      "quit\n",
      SCENARIO_FILE);
  EXPECT_NE(out.find("loaded 6 lines"), std::string::npos) << out;
  EXPECT_NE(out.find("stopped after line 3"), std::string::npos) << out;  // watch fires
  EXPECT_NE(out.find("breakpoint 0 before line 4"), std::string::npos) << out;
}

TEST(ReplE2ETest, UnknownCommandIsReported) {
  std::string out = RunRepl("frobnicate\\nquit\\n");
  EXPECT_NE(out.find("unknown command"), std::string::npos) << out;
}

TEST(ReplE2ETest, CheckCommandReportsDiagnosticsWithCaret) {
  std::string out = RunRepl(
      "check arr[..10] >? 0\\n"
      "check *nosuch\\n"
      "check arr[12]\\n"
      "quit\\n");
  EXPECT_NE(out.find("ok"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown name 'nosuch' [unknown-name]"), std::string::npos) << out;
  EXPECT_NE(out.find("index 12 is past the end"), std::string::npos) << out;
  EXPECT_NE(out.find("fix-it: valid indices are 0..9"), std::string::npos) << out;
  EXPECT_NE(out.find('^'), std::string::npos) << out;
}

TEST(ReplE2ETest, WarnModesGateEvaluation) {
  std::string out = RunRepl(
      "duel if (arr[0] = 3) 99\\n"   // warn on (default): report + evaluate
      "warn error\\n"
      "duel if (arr[0] = 3) 99\\n"   // rejected
      "warn off\\n"
      "duel if (arr[0] = 3) 99\\n"   // silent
      "quit\\n");
  EXPECT_NE(out.find("[assign-in-condition]"), std::string::npos) << out;
  EXPECT_NE(out.find("did you mean '=='?"), std::string::npos) << out;
  EXPECT_NE(out.find("warnings are errors"), std::string::npos) << out;
  // The query evaluated under `warn on` and `warn off` but not `warn error`.
  size_t first = out.find("99");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find("99", first + 1), std::string::npos) << out;
}

TEST(ReplE2ETest, BatchCheckLintsScenarioQueries) {
  std::string out = RunRepl("", std::string("--check ") + SCENARIO_FILE);
  EXPECT_NE(out.find("5 queries checked, 0 errors, 0 warnings"), std::string::npos) << out;
}

}  // namespace
