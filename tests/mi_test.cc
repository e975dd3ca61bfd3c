// MI front end: command parsing, structured value records, error records,
// console form, option commands.

#include "src/mi/mi.h"

#include <gtest/gtest.h>

#include "src/scenarios/scenarios.h"

namespace duel::mi {
namespace {

class MiTest : public ::testing::Test {
 protected:
  MiTest() : backend_(image_), mi_(backend_) {
    target::InstallStandardFunctions(image_);
    scenarios::BuildIntArray(image_, "x", {5, -2, 8});
  }

  target::TargetImage image_;
  dbg::SimBackend backend_;
  MiSession mi_;
};

TEST_F(MiTest, EvaluateProducesValueRecords) {
  std::string r = mi_.Handle("-duel-evaluate \"x[..3] >? 0\"");
  EXPECT_EQ(r,
            "^done,values=[{sym=\"x[0]\",value=\"5\"},{sym=\"x[2]\",value=\"8\"}]\n(gdb)\n");
}

TEST_F(MiTest, TokenIsEchoed) {
  std::string r = mi_.Handle("42-duel-evaluate \"1+1\"");
  EXPECT_TRUE(r.rfind("42^done", 0) == 0) << r;
}

TEST_F(MiTest, ErrorRecord) {
  std::string r = mi_.Handle("-duel-evaluate \"nosuch\"");
  EXPECT_TRUE(r.rfind("^error,msg=\"unknown name", 0) == 0) << r;
}

TEST_F(MiTest, QuotingInRecords) {
  std::string r = mi_.Handle("-duel-evaluate \"\\\"a\\\\\\\"b\\\"\"");
  // The value is a char* string containing a quote; it must be MI-escaped.
  EXPECT_NE(r.find("\\\""), std::string::npos) << r;
  EXPECT_TRUE(r.rfind("^done", 0) == 0) << r;
}

TEST_F(MiTest, ConsoleForm) {
  std::string r = mi_.Handle("duel x[..3] >? 0");
  EXPECT_EQ(r, "~\"x[0] = 5\\n\"\n~\"x[2] = 8\\n\"\n^done\n(gdb)\n");
}

TEST_F(MiTest, EngineAndSymbolicOptions) {
  // There is one evaluation engine, so no engine option is offered.
  EXPECT_EQ(mi_.Handle("-list-features").find("engine"), std::string::npos);
  EXPECT_EQ(mi_.Handle("-duel-set-symbolic off"), "^done\n(gdb)\n");
  std::string r = mi_.Handle("-duel-evaluate \"x[..3] >? 0\"");
  EXPECT_EQ(r, "^done,values=[{sym=\"\",value=\"5\"},{sym=\"\",value=\"8\"}]\n(gdb)\n");
  EXPECT_TRUE(mi_.Handle("-duel-set-symbolic warp").rfind("^error", 0) == 0);
  EXPECT_TRUE(mi_.Handle("-duel-set-symbolic lazy").rfind("^error", 0) == 0);
}

TEST_F(MiTest, ClearAliases) {
  mi_.Handle("-duel-evaluate \"v := 5\"");
  std::string r1 = mi_.Handle("-duel-evaluate \"v\"");
  EXPECT_TRUE(r1.rfind("^done", 0) == 0) << r1;
  EXPECT_EQ(mi_.Handle("-duel-clear-aliases"), "^done\n(gdb)\n");
  std::string r2 = mi_.Handle("-duel-evaluate \"v\"");
  EXPECT_TRUE(r2.rfind("^error", 0) == 0) << r2;
}

TEST_F(MiTest, ListFeatures) {
  std::string r = mi_.Handle("-list-features");
  EXPECT_NE(r.find("duel-evaluate"), std::string::npos);
  EXPECT_NE(r.find("duel-plan"), std::string::npos);
  EXPECT_NE(r.find("duel-set-plan-cache"), std::string::npos);
  EXPECT_NE(r.find("duel-check"), std::string::npos);
  EXPECT_NE(r.find("duel-set-warn"), std::string::npos);
}

TEST_F(MiTest, CheckEmitsDiagRecordsWithSpans) {
  std::string r = mi_.Handle("-duel-check \"*x[0]\"");
  EXPECT_EQ(r,
            "^done,diags=[{severity=\"error\",rule=\"deref-non-pointer\","
            "begin=\"0\",end=\"5\",msg=\"'*' needs a pointer operand\"}]\n(gdb)\n");
  EXPECT_EQ(mi_.Handle("-duel-check \"x[..3]\""), "^done,diags=[]\n(gdb)\n");
  // Warnings carry fix-its.
  std::string w = mi_.Handle("-duel-check \"x[7]\"");
  EXPECT_NE(w.find("severity=\"warning\",rule=\"array-bound\""), std::string::npos) << w;
  EXPECT_NE(w.find("fixit=\"valid indices are 0..2\""), std::string::npos) << w;
}

TEST_F(MiTest, SetWarnGatesEvaluation) {
  EXPECT_EQ(mi_.Handle("-duel-set-warn error"), "^done\n(gdb)\n");
  std::string r = mi_.Handle("-duel-evaluate \"if (x[0] = 5) 1\"");
  EXPECT_TRUE(r.rfind("^error", 0) == 0) << r;
  EXPECT_EQ(mi_.Handle("-duel-set-warn off"), "^done\n(gdb)\n");
  std::string ok = mi_.Handle("-duel-evaluate \"if (x[0] = 5) 1\"");
  EXPECT_TRUE(ok.rfind("^done", 0) == 0) << ok;
}

TEST_F(MiTest, PlanIntrospection) {
  mi_.Handle("-duel-evaluate \"x[..3] >? 0\"");
  mi_.Handle("-duel-evaluate \"x[..3] >? 0\"");
  std::string r = mi_.Handle("-duel-plan");
  EXPECT_TRUE(r.rfind("^done,plan-cache={", 0) == 0) << r;
  EXPECT_NE(r.find("hits=\"1\""), std::string::npos) << r;
  EXPECT_NE(r.find("misses=\"1\""), std::string::npos) << r;
  EXPECT_NE(r.find("{expr=\"x[..3] >? 0\",hits=\"1\""), std::string::npos) << r;

  EXPECT_EQ(mi_.Handle("-duel-set-plan-cache clear"), "^done\n(gdb)\n");
  std::string cleared = mi_.Handle("-duel-plan");
  EXPECT_NE(cleared.find("size=\"0\""), std::string::npos) << cleared;
  EXPECT_TRUE(mi_.Handle("-duel-set-plan-cache sideways").rfind("^error", 0) == 0);
}

TEST_F(MiTest, PlanCacheOffStopsCaching) {
  mi_.Handle("-duel-set-plan-cache off");
  mi_.Handle("-duel-evaluate \"1+1\"");
  mi_.Handle("-duel-evaluate \"1+1\"");
  std::string r = mi_.Handle("-duel-plan");
  EXPECT_NE(r.find("enabled=\"0\""), std::string::npos) << r;
  EXPECT_NE(r.find("lookups=\"0\""), std::string::npos) << r;
}

TEST_F(MiTest, UndefinedCommands) {
  EXPECT_TRUE(mi_.Handle("-frobnicate").rfind("^error", 0) == 0);
  EXPECT_TRUE(mi_.Handle("print 1").rfind("^error", 0) == 0);
}

TEST_F(MiTest, UnquotedExpressionTolerated) {
  std::string r = mi_.Handle("-duel-evaluate x[0]+1");
  EXPECT_TRUE(r.rfind("^done", 0) == 0) << r;
  EXPECT_NE(r.find("value=\"6\""), std::string::npos) << r;
}

TEST_F(MiTest, TruncationFlagSurfaces) {
  mi_.session().options().max_output_values = 2;
  std::string r = mi_.Handle("-duel-evaluate \"1..100\"");
  EXPECT_NE(r.find("truncated=\"1\""), std::string::npos) << r;
}

TEST_F(MiTest, MiQuoteEscapes) {
  EXPECT_EQ(MiQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(MiQuote(""), "\"\"");
}

}  // namespace
}  // namespace duel::mi
