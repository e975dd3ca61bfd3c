// Differential testing: on the pure-C (single-valued) expression subset,
// DUEL's generator engine and the conventional-debugger baseline must
// produce the same values — they share the apply layer but take entirely
// different evaluation paths.

#include <gtest/gtest.h>

#include "src/baseline/baseline.h"
#include "src/duel/output.h"
#include "src/duel/parser.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

void BuildImage(target::TargetImage& image) {
  scenarios::BuildIntArray(image, "x", {3, -1, 4, 1, -5, 9, 2, 6});
  scenarios::BuildList(image, "L", {7, 8, 9});
  target::ImageBuilder b(image);
  target::Addr d = b.Global("d", b.Double());
  b.PokeDouble(d, 2.5);
  target::Addr u = b.Global("u", b.UInt());
  b.PokeI32(u, -1);
  target::Addr c = b.Global("c", b.Char());
  b.PokeI8(c, 'q');
}

// Deterministic generator of single-valued C expressions.
class CExprGen {
 public:
  explicit CExprGen(uint32_t seed) : state_(seed == 0 ? 1 : seed) {}

  std::string Gen(int depth) {
    if (depth <= 0) {
      return Leaf();
    }
    switch (Next() % 10) {
      case 0: return "(" + Gen(depth - 1) + " + " + Gen(depth - 1) + ")";
      case 1: return "(" + Gen(depth - 1) + " - " + Gen(depth - 1) + ")";
      case 2: return "(" + Gen(depth - 1) + " * " + Gen(depth - 1) + ")";
      case 3: return "(" + Gen(depth - 1) + " < " + Gen(depth - 1) + ")";
      case 4: return "(" + Gen(depth - 1) + " == " + Gen(depth - 1) + ")";
      case 5: return "(-" + Gen(depth - 1) + ")";
      case 6: return "(~x[" + std::to_string(Next() % 8) + "])";
      case 7: return "(" + Gen(depth - 1) + " & " + Gen(depth - 1) + ")";
      case 8: return "(" + Gen(depth - 1) + " << " + std::to_string(Next() % 4) + ")";
      default:
        return "(" + Gen(depth - 1) + " ? " + Gen(depth - 1) + " : " + Gen(depth - 1) + ")";
    }
  }

 private:
  uint32_t Next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }

  std::string Leaf() {
    switch (Next() % 7) {
      case 0: return std::to_string(Next() % 100);
      case 1: return "x[" + std::to_string(Next() % 8) + "]";
      case 2: return "L->value";
      case 3: return "d";
      case 4: return "u";
      case 5: return "(int)c";
      default: return "L->next->value";
    }
  }

  uint32_t state_;
};

class DifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DifferentialTest, BaselineMatchesBothEngines) {
  DuelFixture fx;
  BuildImage(fx.image());
  DuelFixture base_fx;
  BuildImage(base_fx.image());
  EvalContext base_ctx(base_fx.backend(), EvalOptions());

  CExprGen gen(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    std::string expr = gen.Gen(3);
    std::string baseline_value;
    bool baseline_ok = true;
    try {
      baseline_value = baseline::RunBaselineQuery(base_fx.backend(), base_ctx, expr);
    } catch (const DuelError&) {
      baseline_ok = false;
    }
    QueryResult cold = fx.session().Query(expr);
    ASSERT_EQ(cold.ok, baseline_ok) << expr << "\n" << cold.error;
    // Warm re-run: replaying the cached CompiledQuery must give the same
    // verdict and match the baseline byte for byte.
    QueryResult warm = fx.session().Query(expr);
    ASSERT_EQ(warm.ok, baseline_ok) << expr << " (warm)\n" << warm.error;
    if (!baseline_ok) {
      continue;
    }
    ASSERT_EQ(cold.value_count(), 1u) << expr;
    EXPECT_EQ(cold.ValueText(0), baseline_value) << expr;
    ASSERT_EQ(warm.value_count(), 1u) << expr << " (warm)";
    EXPECT_EQ(warm.ValueText(0), baseline_value) << expr << " (warm)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(1u, 11u));

}  // namespace
}  // namespace duel
