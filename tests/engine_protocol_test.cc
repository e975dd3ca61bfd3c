// The engine pull protocol itself: one value per Next(), nullopt at
// exhaustion, and the paper's restart rule — "After NOVALUE is returned, the
// next call to eval re-evaluates the node."

#include <gtest/gtest.h>

#include "src/duel/parser.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

class EngineProtocolTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  static EvalOptions Options() { return ConfigOptions(GetParam()).eval; }

  DuelFixture fx_;
};

TEST_P(EngineProtocolTest, RestartsAfterExhaustion) {
  scenarios::BuildIntArray(fx_.image(), "x", {7, 0, 9});
  EvalContext ctx(fx_.backend(), Options());
  Parser parser("x[..3] >? 5");
  ParseResult parsed = parser.Parse();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);

  for (int round = 0; round < 3; ++round) {
    std::optional<Value> v1 = engine.Next();
    ASSERT_TRUE(v1.has_value()) << "round " << round;
    EXPECT_EQ(v1->sym().Text(), "x[0]");
    std::optional<Value> v2 = engine.Next();
    ASSERT_TRUE(v2.has_value());
    EXPECT_EQ(v2->sym().Text(), "x[2]");
    EXPECT_FALSE(engine.Next().has_value()) << "round " << round;
    // The paper: after NOVALUE, evaluation starts over.
  }
}

TEST_P(EngineProtocolTest, SideEffectsRepeatOnRestart) {
  EvalContext ctx(fx_.backend(), Options());
  Parser parser("int n; n = n + 1; {n}");
  ParseResult parsed = parser.Parse();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);

  ASSERT_TRUE(engine.Next().has_value());
  EXPECT_FALSE(engine.Next().has_value());
  // Restart: the declaration re-allocates (fresh n = 0), so the incremented
  // value is 1 again — the whole expression is re-evaluated, as specified.
  std::optional<Value> v = engine.Next();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->sym().Text(), "1");
}

TEST_P(EngineProtocolTest, StartResetsState) {
  EvalContext ctx(fx_.backend(), Options());
  Parser parser("1..3");
  ParseResult parsed = parser.Parse();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);
  ASSERT_TRUE(engine.Next().has_value());  // 1 pulled, sequence mid-flight
  engine.Start(*parsed.root, parsed.num_nodes);
  std::optional<Value> v = engine.Next();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->sym().Text(), "1");  // back to the beginning
}

TEST_P(EngineProtocolTest, ScopeStackBalancedAfterEveryPull) {
  scenarios::BuildList(fx_.image(), "L", {1, 2, 3});
  EvalContext ctx(fx_.backend(), Options());
  Parser parser("L-->next->(value ==? (1..3))");
  ParseResult parsed = parser.Parse();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);
  int values = 0;
  while (engine.Next().has_value()) {
    EXPECT_TRUE(ctx.scopes().empty()) << "scope leaked across a suspension";
    ++values;
  }
  EXPECT_TRUE(ctx.scopes().empty());
  EXPECT_EQ(values, 3);
}

TEST_P(EngineProtocolTest, ScopeStackBalancedAfterErrors) {
  scenarios::BuildSymtab(fx_.image(), {});  // all-NULL buckets
  EvalContext ctx(fx_.backend(), Options());
  Parser parser("hash[0]->scope");
  ParseResult parsed = parser.Parse();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);
  EXPECT_THROW(engine.Next(), DuelError);
  EXPECT_TRUE(ctx.scopes().empty()) << "scope leaked across an exception";
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineProtocolTest, kSessionConfigs, SessionConfigName);

// Compound assignments: every operator (the corpus tests cover composition;
// here the arithmetic itself).
TEST(CompoundAssignTest, AllOperators) {
  struct Case {
    const char* op;
    int32_t initial;
    const char* rhs;
    const char* expected;
  };
  const Case kCases[] = {
      {"+=", 10, "3", "13"},  {"-=", 10, "3", "7"},    {"*=", 10, "3", "30"},
      {"/=", 10, "3", "3"},   {"%=", 10, "3", "1"},    {"<<=", 10, "2", "40"},
      {">>=", 10, "2", "2"},  {"&=", 12, "10", "8"},   {"|=", 12, "10", "14"},
      {"^=", 12, "10", "6"},
  };
  for (const Case& c : kCases) {
    DuelFixture fx;
    target::ImageBuilder b(fx.image());
    target::Addr v = b.Global("v", b.Int());
    b.PokeI32(v, c.initial);
    fx.Lines(std::string("v ") + c.op + " " + c.rhs + " ;");
    EXPECT_EQ(fx.One("{v}"), c.expected) << c.op;
  }
}

TEST(CompoundAssignTest, OverGeneratedLvalues) {
  DuelFixture fx;
  scenarios::BuildIntArray(fx.image(), "x", {1, 2, 3, 4});
  fx.Lines("x[..4] *= 10 ;");
  EXPECT_EQ(fx.One("+/x[..4]"), "100");
  fx.Lines("x[..4] >>= 1 ;");
  EXPECT_EQ(fx.One("+/x[..4]"), "50");
}

}  // namespace
}  // namespace duel
