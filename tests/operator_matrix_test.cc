// Systematic operator matrix: every sequence operator crossed with empty /
// single / multi-valued operands, checked against the
// cardinality each operator's semantics dictate. Empty operands are where
// restart bookkeeping breaks, so each query is also driven twice.

#include <gtest/gtest.h>

#include "src/support/strings.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

// Operand shapes and their cardinalities. "8..7" is the canonical empty
// generator; truthiness-sensitive ops get shapes with known zero patterns.
struct Shape {
  const char* expr;
  uint64_t count;
  uint64_t truthy;  // number of non-zero values
};

const Shape kShapes[] = {
    {"(8..7)", 0, 0},
    {"5", 1, 1},
    {"0", 1, 0},
    {"(1..3)", 3, 3},
    {"(0,2,0)", 3, 1},
};

class OperatorMatrixTest : public ::testing::TestWithParam<SessionConfig> {
 protected:
  OperatorMatrixTest() : fx_(Options()) {}

  SessionOptions Options() {
    SessionOptions o = ConfigOptions(GetParam());
    o.eval.sym_mode = EvalOptions::SymMode::kOff;
    return o;
  }

  uint64_t Count(const std::string& expr) {
    uint64_t first = fx_.session().Drive(expr);
    uint64_t second = fx_.session().Drive(expr);  // restart must agree
    EXPECT_EQ(first, second) << expr << " (restart changed the cardinality)";
    return first;
  }

  DuelFixture fx_;
};

TEST_P(OperatorMatrixTest, ArithmeticOpsAreCartesian) {
  for (const char* op : {"+", "-", "*", "&", "|", "^", "<<", "==", "<"}) {
    for (const Shape& a : kShapes) {
      for (const Shape& b : kShapes) {
        std::string expr = StrPrintf("%s %s %s", a.expr, op, b.expr);
        EXPECT_EQ(Count(expr), a.count * b.count) << expr;
      }
    }
  }
}

TEST_P(OperatorMatrixTest, AlternationAdds) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("%s, %s", a.expr, b.expr);
      EXPECT_EQ(Count(expr), a.count + b.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, ImplyMultiplies) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("%s => %s", a.expr, b.expr);
      EXPECT_EQ(Count(expr), a.count * b.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, SequenceYieldsRightOnly) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("%s ; %s", a.expr, b.expr);
      EXPECT_EQ(Count(expr), b.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, AndAndYieldsRightPerTruthyLeft) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("%s && %s", a.expr, b.expr);
      EXPECT_EQ(Count(expr), a.truthy * b.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, OrOrYieldsLeftTruthyPlusRightPerFalsyLeft) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("%s || %s", a.expr, b.expr);
      EXPECT_EQ(Count(expr), a.truthy + (a.count - a.truthy) * b.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, IfWithoutElseFilters) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("if (%s) %s", a.expr, b.expr);
      EXPECT_EQ(Count(expr), a.truthy * b.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, IfElseSplitsByTruthiness) {
  for (const Shape& a : kShapes) {
    for (const Shape& b : kShapes) {
      std::string expr = StrPrintf("if (%s) %s else 7", a.expr, b.expr);
      EXPECT_EQ(Count(expr), a.truthy * b.count + (a.count - a.truthy)) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, ReductionsAlwaysYieldExactlyOne) {
  for (const char* red : {"#/", "+/", "&&/", "||/"}) {
    for (const Shape& a : kShapes) {
      std::string expr = std::string(red) + a.expr;
      EXPECT_EQ(Count(expr), 1u) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, SelectBoundsRespected) {
  for (const Shape& a : kShapes) {
    // In-range and out-of-range indices.
    EXPECT_EQ(Count(StrPrintf("%s[[0]]", a.expr)), a.count > 0 ? 1u : 0u) << a.expr;
    EXPECT_EQ(Count(StrPrintf("%s[[9]]", a.expr)), 0u) << a.expr;
    EXPECT_EQ(Count(StrPrintf("%s[[8..7]]", a.expr)), 0u) << a.expr;  // empty indices
  }
}

TEST_P(OperatorMatrixTest, UnaryOpsPreserveCardinality) {
  for (const char* op : {"-", "~", "!", "+"}) {
    for (const Shape& a : kShapes) {
      std::string expr = std::string(op) + a.expr;
      EXPECT_EQ(Count(expr), a.count) << expr;
    }
  }
}

TEST_P(OperatorMatrixTest, ToWithGeneratorBounds) {
  // |a..b| per combination = max(0, b-a+1); totals precomputed.
  EXPECT_EQ(Count("(8..7)..(1..3)"), 0u);
  EXPECT_EQ(Count("(1..3)..(8..7)"), 0u);
  EXPECT_EQ(Count("(1,3)..(2,4)"), 2u + 4u + 0u + 2u);
  EXPECT_EQ(Count("0..(0,1,2)"), 1u + 2u + 3u);
}

TEST_P(OperatorMatrixTest, FiltersNeverExceedCartesian) {
  for (const char* op : {">?", "<?", "==?", "!=?", ">=?", "<=?"}) {
    for (const Shape& a : kShapes) {
      for (const Shape& b : kShapes) {
        std::string expr = StrPrintf("%s %s %s", a.expr, op, b.expr);
        EXPECT_LE(Count(expr), a.count * b.count) << expr;
      }
    }
  }
  // Exact spot values.
  EXPECT_EQ(Count("(1..3) ==? (1..3)"), 3u);
  EXPECT_EQ(Count("(1..3) !=? (1..3)"), 6u);
  EXPECT_EQ(Count("(1..3) <? 3"), 2u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, OperatorMatrixTest, kSessionConfigs, SessionConfigName);

}  // namespace
}  // namespace duel
