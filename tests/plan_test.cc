// Plan-cache behaviour: hits and misses, epoch-based invalidation (frame
// switches, symbol additions, alias redefinition; target calls keep plans),
// fingerprinting of compilation-relevant options, and output equivalence
// with the cache on vs off.

#include <gtest/gtest.h>

#include "src/duel/plan.h"
#include "src/target/builder.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() {
    fx_.session().options().collect_stats = true;
  }

  const PlanCacheCounters& counters() { return fx_.session().plan_cache().counters(); }

  DuelFixture fx_;
};

TEST_F(PlanTest, RepeatQueryHitsCache) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3});
  std::vector<std::string> cold = fx_.Lines("x[..3] >? 1");
  EXPECT_FALSE(fx_.session().last_stats()->plan_hit);
  EXPECT_GT(fx_.session().last_stats()->parse_ns, 0u);

  std::vector<std::string> warm = fx_.Lines("x[..3] >? 1");
  EXPECT_EQ(cold, warm);
  const obs::QueryStats& stats = *fx_.session().last_stats();
  EXPECT_TRUE(stats.plan_hit);
  // The build stages did not run on the hit.
  EXPECT_EQ(stats.lex_ns, 0u);
  EXPECT_EQ(stats.parse_ns, 0u);
  EXPECT_EQ(stats.analyze_ns, 0u);
  EXPECT_EQ(counters().lookups, 2u);
  EXPECT_EQ(counters().hits, 1u);
  EXPECT_EQ(counters().misses, 1u);
}

TEST_F(PlanTest, DifferentTextMisses) {
  fx_.Lines("1+1");
  fx_.Lines("1+2");
  EXPECT_EQ(counters().hits, 0u);
  EXPECT_EQ(counters().misses, 2u);
  EXPECT_EQ(fx_.session().plan_cache().size(), 2u);
}

TEST_F(PlanTest, OptionFingerprintSeparatesPlans) {
  // sym_mode affects what constant folding bakes into the plan, so flipping
  // it must compile a fresh plan rather than reuse (or invalidate) the old.
  fx_.Lines("2*3+1");
  fx_.session().options().eval.sym_mode = EvalOptions::SymMode::kOff;
  fx_.Lines("2*3+1");
  EXPECT_EQ(counters().hits, 0u);
  EXPECT_EQ(counters().misses, 2u);
  EXPECT_EQ(counters().invalidations, 0u);
  EXPECT_EQ(fx_.session().plan_cache().size(), 2u);

  // And each variant hits its own entry afterwards.
  fx_.Lines("2*3+1");
  fx_.session().options().eval.sym_mode = EvalOptions::SymMode::kOn;
  fx_.Lines("2*3+1");
  EXPECT_EQ(counters().hits, 2u);
}

TEST_F(PlanTest, FrameSwitchInvalidates) {
  scenarios::BuildIntArray(fx_.image(), "x", {7});
  fx_.Lines("x[0]");
  fx_.image().symbols().PushFrame("handler");
  fx_.Lines("x[0]");
  EXPECT_EQ(counters().invalidations, 1u);
  EXPECT_EQ(counters().hits, 0u);
}

TEST_F(PlanTest, SymbolTableMutationInvalidates) {
  fx_.Lines("1+1");
  scenarios::BuildIntArray(fx_.image(), "fresh", {1});  // AddGlobal bumps the epoch
  fx_.Lines("1+1");
  EXPECT_EQ(counters().invalidations, 1u);
}

TEST_F(PlanTest, TargetCallKeepsPlansAndReadsFreshValues) {
  target::ImageBuilder b(fx_.image());
  Addr g = b.Global("g", b.Int());
  b.PokeI32(g, 5);
  target::TypeTable& tt = fx_.image().types();
  fx_.image().RegisterFunction(
      "bump", tt.Function(tt.Int(), {}, false),
      [g](target::TargetImage& img, std::span<const target::RawDatum>) {
        int32_t v = img.memory().ReadScalar<int32_t>(g);
        img.memory().WriteScalar<int32_t>(g, v + 1);
        return target::MakeScalarDatum<int32_t>(img.types().Int(), v);
      });
  EXPECT_EQ(fx_.One("g"), "g = 5");
  fx_.Lines("bump() ;");
  // The call wrote g but moved no symbol: g's plan is replayed, and the
  // replay reads the new value because plans hold no target bytes.
  EXPECT_EQ(fx_.One("g"), "g = 6");
  EXPECT_TRUE(fx_.session().last_stats()->plan_hit);
  EXPECT_EQ(counters().invalidations, 0u);
}

TEST_F(PlanTest, AliasRedefinitionInvalidatesBoundPlan) {
  scenarios::BuildIntArray(fx_.image(), "x", {7});
  EXPECT_EQ(fx_.One("x[0]"), "x[0] = 7");

  // An alias now shadows the bound name: the cached binding is stale. A
  // stale plan replayed here would wrongly keep printing 7; the rebuilt one
  // sees the alias (a plain int, not indexable) instead.
  fx_.Lines("x := 41 ;");
  EXPECT_EQ(fx_.One("x + 1"), "x+1 = 42");
  QueryResult shadowed = fx_.session().Query("x[0]");
  EXPECT_FALSE(shadowed.ok);
  EXPECT_GE(counters().invalidations, 1u);

  // Unshadowing restores the target variable (via the dynamic lookup path).
  fx_.session().ClearAliases();
  EXPECT_EQ(fx_.One("x[0]"), "x[0] = 7");
}

TEST_F(PlanTest, AliasChurnLeavesUnboundPlansAlone) {
  // A plan that consulted no name holds no binding, so alias-heavy sessions
  // keep it warm.
  fx_.Lines("1+1");
  fx_.Lines("v := 5 ;");
  fx_.Lines("1+1");
  EXPECT_TRUE(fx_.session().last_stats()->plan_hit);
  EXPECT_EQ(counters().invalidations, 0u);
}

// The names a plan bound at compile time, in preorder.
void CollectBound(const Annotations& notes, const Node& n, std::vector<std::string>* out) {
  if (const NodeInfo* info = notes.Get(n.id); info != nullptr && info->prebound) {
    out->push_back(n.text);
  }
  for (const NodePtr& k : n.kids) {
    CollectBound(notes, *k, out);
  }
}

// One analysis walk binds names, folds constants, resolves cast types and
// renders the verdict, each under the rules the engine relies on.
TEST_F(PlanTest, AnalyzeBindsFoldsAndResolvesOnce) {
  scenarios::BuildIntArray(fx_.image(), "x", {3, -1, 4});
  scenarios::BuildList(fx_.image(), "L", {5, 6});
  target::ImageBuilder b(fx_.image());
  b.PokeI32(b.Global("i", b.Int()), 5);
  b.PokeI32(b.Global("value", b.Int()), 777);

  struct Case {
    const char* text;
    std::vector<std::string> bound;
    size_t folded;
    bool root_type_resolved;
    std::string error_rule;  // "" when the verdict has no error
  };
  const Case cases[] = {
      {"x[..3] >? 0", {"x"}, 0, false, ""},
      {"L-->next->value", {"L"}, 0, false, ""},    // members stay dynamic
      {"i := 7 => {i} + 1", {}, 0, false, ""},     // the query defines i
      {"frames()", {}, 0, false, ""},              // a callee is not an operand
      {"{value}", {"value"}, 0, false, ""},        // outside any scope
      {"L->value", {"L"}, 0, false, ""},           // inside L's scope
      {"(1..3) + 2*3", {}, 1, false, ""},          // one maximal constant root
      {"(int)x[0]", {"x"}, 0, true, ""},
      {"*i", {"i"}, 0, false, "deref-non-pointer"},
  };
  for (const Case& c : cases) {
    const CompiledQuery* plan = fx_.session().Prepare(c.text);
    ASSERT_NE(plan, nullptr) << c.text;
    const Annotations& notes = plan->notes;
    std::vector<std::string> bound;
    CollectBound(notes, *plan->parsed.root, &bound);
    EXPECT_EQ(bound, c.bound) << c.text;
    EXPECT_EQ(notes.stats.names_bound, c.bound.size()) << c.text;
    EXPECT_EQ(notes.stats.nodes_folded, c.folded) << c.text;
    EXPECT_EQ(notes.Get(plan->parsed.root->id)->resolved_type != nullptr,
              c.root_type_resolved)
        << c.text;
    EXPECT_EQ(notes.check.HasErrors(), !c.error_rule.empty()) << c.text;
    if (!c.error_rule.empty()) {
      ASSERT_FALSE(notes.check.diags.empty()) << c.text;
      EXPECT_EQ(notes.check.diags.front().rule, c.error_rule) << c.text;
    }
  }
}

TEST_F(PlanTest, CacheOffNeverLooksUp) {
  fx_.session().options().plan_cache = false;
  fx_.Lines("1+1");
  fx_.Lines("1+1");
  EXPECT_EQ(counters().lookups, 0u);
  EXPECT_EQ(fx_.session().plan_cache().size(), 0u);
}

TEST_F(PlanTest, LruEvictionAtCapacity) {
  fx_.session().plan_cache().set_capacity(2);
  fx_.Lines("1");
  fx_.Lines("2");
  fx_.Lines("3");  // evicts "1"
  EXPECT_EQ(counters().evictions, 1u);
  fx_.Lines("2");  // still cached (was MRU when "3" arrived)
  EXPECT_TRUE(fx_.session().last_stats()->plan_hit);
  fx_.Lines("1");  // evicted: rebuilt
  EXPECT_FALSE(fx_.session().last_stats()->plan_hit);
}

TEST_F(PlanTest, ProfileIdenticalCachedAndUncached) {
  scenarios::BuildIntArray(fx_.image(), "x", {3, 1, 4, 1, 5});
  fx_.session().options().profile = true;
  QueryResult cold = fx_.session().Query("x[..5] >? 1");
  QueryResult warm = fx_.session().Query("x[..5] >? 1");
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warm.ok);
  ASSERT_TRUE(cold.stats.has_value());
  ASSERT_TRUE(warm.stats.has_value());
  EXPECT_FALSE(cold.stats->plan_hit);
  EXPECT_TRUE(warm.stats->plan_hit);
  // Stable node ids: the per-node step profile is identical whether the
  // plan was built or replayed.
  EXPECT_EQ(cold.stats->profiled_steps, warm.stats->profiled_steps);
  ASSERT_EQ(cold.stats->nodes.size(), warm.stats->nodes.size());
  for (size_t i = 0; i < cold.stats->nodes.size(); ++i) {
    EXPECT_EQ(cold.stats->nodes[i].node_id, warm.stats->nodes[i].node_id);
    EXPECT_EQ(cold.stats->nodes[i].op, warm.stats->nodes[i].op);
    EXPECT_EQ(cold.stats->nodes[i].steps, warm.stats->nodes[i].steps) << "node " << i;
  }
}

// The cache must be semantically invisible: identical output with the cache
// on vs off, including across stateful queries (aliases, declared variables)
// and repeated runs.
class PlanEquivalenceTest : public ::testing::TestWithParam<SessionConfig> {};

TEST_P(PlanEquivalenceTest, OutputIdenticalCacheOnAndOff) {
  DuelFixture cached(ConfigOptions(GetParam()));
  DuelFixture uncached(ConfigOptions(GetParam()));
  cached.session().options().plan_cache = true;
  uncached.session().options().plan_cache = false;
  for (DuelFixture* fx : {&cached, &uncached}) {
    scenarios::BuildIntArray(fx->image(), "x", {5, 0, 7, 2});
    scenarios::BuildList(fx->image(), "L", {10, 20, 30});
  }

  const char* queries[] = {
      "x[..4] >? 1",
      "int total ;",
      "total += x[..4] ;",
      "total",
      "#/(x[..4] > 2)",
      "L-->next->value",
      "x[..4] >? 1",  // repeat: warm on one side, rebuilt on the other
      "L-->next->value",
      "total",
  };
  for (const char* q : queries) {
    QueryResult a = cached.session().Query(q);
    QueryResult b = uncached.session().Query(q);
    EXPECT_EQ(a.ok, b.ok) << q;
    EXPECT_EQ(a.lines, b.lines) << q;
  }
  EXPECT_GT(cached.session().plan_cache().counters().hits, 0u);
  EXPECT_EQ(uncached.session().plan_cache().counters().lookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, PlanEquivalenceTest, kSessionConfigs);

}  // namespace
}  // namespace duel
