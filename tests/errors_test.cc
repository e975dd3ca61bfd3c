// Error paths: unknown names, memory faults with symbolic context, type
// errors, division by zero, evaluation fuel, parse diagnostics.

#include <gtest/gtest.h>

#include "tests/duel_test_util.h"

namespace duel {
namespace {

class ErrorsTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  ErrorsTest() : fx_(ConfigOptions(GetParam())) {}

  DuelFixture fx_;
};

TEST_P(ErrorsTest, UnknownName) {
  std::string err = fx_.Error("nosuchvar + 1");
  EXPECT_NE(err.find("unknown name 'nosuchvar'"), std::string::npos) << err;
}

TEST_P(ErrorsTest, NullPointerMemberAccess) {
  scenarios::BuildSymtab(fx_.image(), {});  // hash full of NULLs
  std::string err = fx_.Error("hash[0]->scope");
  EXPECT_NE(err.find("Illegal memory reference"), std::string::npos) << err;
}

TEST_P(ErrorsTest, MemoryFaultNamesOffendingOperand) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef t = b.Struct("T").Field("val", b.Int()).Build();
  target::Addr p = b.Global("p", b.Ptr(t));
  b.PokePtr(p, 0x16820);  // dangling
  std::string err = fx_.Error("p->val + 1");
  EXPECT_NE(err.find("Illegal memory reference"), std::string::npos) << err;
  EXPECT_NE(err.find("lvalue 0x16820"), std::string::npos) << err;
}

TEST_P(ErrorsTest, DivisionByZero) {
  std::string err = fx_.Error("1/0");
  EXPECT_NE(err.find("division by zero"), std::string::npos) << err;
  err = fx_.Error("5 % (0..2)");
  EXPECT_NE(err.find("modulo by zero"), std::string::npos) << err;
}

TEST_P(ErrorsTest, UnboundedGeneratorHitsFuel) {
  fx_.session().options().eval.max_steps = 10'000;
  std::string err = fx_.Error("#/(1..)");
  EXPECT_NE(err.find("exceeded"), std::string::npos) << err;
}

TEST_P(ErrorsTest, StepLimitCountsOneQueryNotTheSession) {
  // A long-lived session (REPL, serve worker) must not start failing once
  // its cumulative step count passes max_steps: the budget is per query.
  fx_.session().options().eval.max_steps = 1000;
  for (int run = 0; run < 3; ++run) {
    QueryResult r = fx_.session().Query("#/(1..300)");
    EXPECT_TRUE(r.ok) << "run " << run << ": " << r.error;
  }
  QueryResult over = fx_.session().Query("#/(1..2000)");
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.error_kind, ErrorKind::kLimit);
  EXPECT_FALSE(over.error_span.empty());
}

TEST_P(ErrorsTest, TypeErrors) {
  EXPECT_NE(fx_.Error("*5").find("pointer"), std::string::npos);
  EXPECT_NE(fx_.Error("&5").find("lvalue"), std::string::npos);
  EXPECT_NE(fx_.Error("1.5 % 2").find("invalid operands"), std::string::npos);
  EXPECT_NE(fx_.Error("5 = 1").find("lvalue"), std::string::npos);
}

TEST_P(ErrorsTest, UnderscoreOutsideWith) {
  EXPECT_NE(fx_.Error("_ + 1").find("'_'"), std::string::npos);
}

TEST_P(ErrorsTest, UnknownStructTag) {
  EXPECT_NE(fx_.Error("(struct nothere *)0").find("unknown struct tag"), std::string::npos);
}

TEST_P(ErrorsTest, UnknownFunction) {
  EXPECT_NE(fx_.Error("frobnicate(1)").find("unknown function"), std::string::npos);
}

TEST_P(ErrorsTest, ParseErrorsAreReported) {
  QueryResult r = fx_.session().Query("1 + ");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("syntax error"), std::string::npos) << r.error;
}

TEST_P(ErrorsTest, NoMemberInStruct) {
  scenarios::BuildSymtab(fx_.image(), {{0, {{"a", 1}}}});
  std::string err = fx_.Error("hash[0]->nosuchfield");
  EXPECT_NE(err.find("unknown name"), std::string::npos) << err;
}

TEST_P(ErrorsTest, SessionRecoversAfterError) {
  fx_.Error("nosuch + 1");
  EXPECT_EQ(fx_.One("2+2"), "2+2 = 4");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, ErrorsTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
