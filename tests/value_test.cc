// Small values: the bump arena behind symbolics and aggregate rvalues, and
// the lifetime rule that goes with it — a Value lives until the next
// BeginQuery, and owners that keep one (aliases, a plan's constants)
// re-home it. Each lifetime case compares a session whose arena has been
// rewound and refilled many times with a fresh session.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/duel/value.h"
#include "src/support/arena.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

static_assert(std::is_trivially_copyable_v<Value>);
static_assert(sizeof(Value) <= 48);

TEST(ArenaTest, AllocationsAreAlignedAndDistinct) {
  Arena arena(64);
  auto* a = static_cast<uint8_t*>(arena.Allocate(3, 1));
  auto* b = static_cast<uint64_t*>(arena.Allocate(sizeof(uint64_t), alignof(uint64_t)));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(uint64_t), 0u);
  EXPECT_NE(static_cast<void*>(a), static_cast<void*>(b));
  // A request larger than any block gets a block of its own.
  auto* big = static_cast<uint8_t*>(arena.Allocate(10'000));
  big[9'999] = 1;
  EXPECT_GE(arena.blocks(), 2u);
  const char text[] = "copied";
  uint8_t* copy = arena.Copy(text, sizeof(text));
  EXPECT_STREQ(reinterpret_cast<const char*>(copy), "copied");
}

TEST(ArenaTest, RewindKeepsOnlyTheFirstBlock) {
  Arena arena(128);
  for (int i = 0; i < 100; ++i) {
    arena.Allocate(100);
  }
  EXPECT_GT(arena.blocks(), 1u);
  EXPECT_GE(arena.used(), 100u * 100u);
  arena.Rewind();
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_EQ(arena.used(), 0u);
  arena.Allocate(16);
  EXPECT_EQ(arena.blocks(), 1u);
  arena.Clear();
  EXPECT_EQ(arena.blocks(), 0u);
}

TEST(ArenaTest, MoveTransfersTheBlocks) {
  Arena a(64);
  uint8_t* p = a.Copy("abc", 4);
  Arena b = std::move(a);
  EXPECT_EQ(a.blocks(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(b.blocks(), 1u);
  EXPECT_STREQ(reinterpret_cast<const char*>(p), "abc");
}

TEST(ValueTest, ScalarsLiveInTheValue) {
  target::TypeTable tt;
  Value v = Value::Int(tt.Short(), -2, Sym::Decimal(-2));
  ASSERT_EQ(v.bytes().size(), 2u);
  EXPECT_EQ(v.bits(), 0xfffeu);  // truncated to the type, zero above it
  EXPECT_EQ(v.sym().Text(), "-2");
  Value copy = v;
  EXPECT_EQ(copy.bytes()[0], 0xfe);
}

TEST(ValueTest, RehomeCopiesTheImageAndTheSymbolic) {
  target::TypeTable tt;
  Arena query;
  Arena owner;
  std::vector<uint8_t> image(40, 7);
  const std::string text = "a symbolic text longer than the handle";
  Value v = Value::RV(tt.ArrayOf(tt.Char(), 40), query.Copy(image.data(), image.size()),
                      image.size(), Sym::Plain(query, text));
  Value kept = v.Rehome(owner);
  query.Clear();  // the query's records are gone
  ASSERT_EQ(kept.bytes().size(), 40u);
  EXPECT_EQ(kept.bytes()[39], 7);
  EXPECT_EQ(kept.sym().Text(), text);
}

// --- values that outlive the arena ------------------------------------------

// A session and its image, built by `build`; each fixture below makes a
// fresh one to compare against.
struct Rig {
  explicit Rig(const std::function<void(target::TargetImage&)>& build) {
    build(fx.image());
  }
  std::string Text(const std::string& q) { return fx.session().Query(q).Text(); }
  DuelFixture fx;
};

// Fills the query arena past its first block with long symbolics.
void Scribble(Rig& rig) {
  rig.Text("#/(big_list_name-->next->value)");
}

void BuildLongList(target::TargetImage& image) {
  std::vector<int32_t> values(2000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i % 7) - 3;
  }
  scenarios::BuildList(image, "big_list_name", values);
}

void BuildWide(target::TargetImage& image) {
  target::ImageBuilder b(image);
  target::TypeRef wide =
      b.Struct("wide").Field("a", b.Arr(b.Int(), 8)).Field("tail", b.Long()).Build();
  target::Addr src = b.Global("src", wide);
  for (int i = 0; i < 8; ++i) {
    b.PokeI32(src + i * 4, i + 1);
  }
  b.PokeI64(src + 32, 99);
  BuildLongList(image);
}

TEST(ValueLifetimeTest, AliasOfAnAggregateRvalueOutlivesItsQuery) {
  Rig rig(BuildWide);
  ASSERT_EQ(rig.Text("w := (struct wide)src ;"), "");
  Scribble(rig);
  Scribble(rig);
  Rig fresh(BuildWide);
  EXPECT_EQ(rig.Text("{w.tail}"), fresh.Text("{((struct wide)src).tail}"));
  EXPECT_EQ(rig.Text("{w.a}"), fresh.Text("{((struct wide)src).a}"));
  EXPECT_EQ(rig.Text("{w}"), fresh.Text("{(struct wide)src}"));
  // Rebinding the alias inside a scope opened on it leaves the subject,
  // taken from the old binding, valid.
  EXPECT_EQ(rig.fx.One("{w.(tail + 0*(w := (struct wide)src).tail)}"), "99");
  Scribble(rig);
  EXPECT_EQ(rig.Text("{w}"), fresh.Text("{src}"));
}

TEST(ValueLifetimeTest, CachedPlanConstantsOutliveTheirQuery) {
  auto build = [](target::TargetImage& image) {
    scenarios::BuildIntArray(image, "x", {4, -1, 6});
    BuildLongList(image);
  };
  Rig rig(build);
  const char* queries[] = {
      "x[..3] + (1+2)",            // a folded constant
      "x[..3] >? 0",               // a materialized literal
      "x[..3] + (-12345678901234567 - 98765432109876543)",  // a long folded symbolic
      "x[..3] * 2.5e10",           // a materialized floating literal
  };
  Rig fresh(build);
  for (const char* q : queries) {
    const std::string want = fresh.Text(q);
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(rig.Text(q), want) << q << " run " << run;
      Scribble(rig);
    }
  }
  EXPECT_GE(rig.fx.session().plan_cache().counters().hits, 8u);
}

// A complete binary tree of `n` nodes in the paper's preorder notation.
std::string Balanced(int lo, int hi) {
  if (lo > hi) {
    return "()";
  }
  int mid = lo + (hi - lo) / 2;
  return "(" + std::to_string(mid) + " " + Balanced(lo, mid - 1) + " " +
         Balanced(mid + 1, hi) + ")";
}

TEST(ValueLifetimeTest, LongWalksMatchAFreshSession) {
  auto build = [](target::TargetImage& image) {
    std::vector<int32_t> values(10'000);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<int32_t>((i * 7919) % 201) - 100;
    }
    scenarios::BuildList(image, "L", values);
    scenarios::BuildTree(image, "root", Balanced(1, 8191));
    BuildLongList(image);
  };
  Rig rig(build);
  Rig fresh(build);
  const char* queries[] = {
      "L-->next->value",
      "root-->(left,right)->key",
      "+/(L-->next->value)",
      "#/(root-->(left,right)->key)",
      "(L-->next->value)[[9999]]",
  };
  for (const char* q : queries) {
    const std::string want = fresh.Text(q);
    ASSERT_FALSE(want.empty()) << q;
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(rig.Text(q), want) << q << " run " << run;
      Scribble(rig);
    }
  }
}

// --- +/ composes no symbolic per element ------------------------------------

TEST(ValueTest, SumBuildsNoMoreSymbolicsThanCount) {
  DuelFixture fx;
  std::vector<int32_t> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(i) - 300;
  }
  scenarios::BuildIntArray(fx.image(), "x", values);
  for (int n : {1, 10, 1000}) {
    const std::string range = "(x[.." + std::to_string(n) + "])";
    auto builds = [&](const std::string& q) {
      fx.session().Query(q);  // warm the plan
      uint64_t before = fx.session().context().counters().symbolic_builds;
      QueryResult r = fx.session().Query(q);
      EXPECT_TRUE(r.ok) << q << ": " << r.error;
      return std::make_pair(fx.session().context().counters().symbolic_builds - before,
                            r.lines);
    };
    auto [sum_builds, sum_lines] = builds("+/" + range);
    auto [count_builds, count_lines] = builds("#/" + range);
    EXPECT_EQ(sum_builds, count_builds) << n;
    int64_t want = 0;
    for (int i = 0; i < n; ++i) {
      want += values[static_cast<size_t>(i)];
    }
    EXPECT_EQ(sum_lines, std::vector<std::string>{std::to_string(want)}) << n;
    EXPECT_EQ(count_lines, std::vector<std::string>{std::to_string(n)}) << n;
  }
}

}  // namespace
}  // namespace duel
