// Session-level behaviour: alias persistence across queries, output
// truncation, option plumbing, Drive vs Query, output formatting corners.

#include <gtest/gtest.h>

#include <limits>

#include "src/duel/output.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  DuelFixture fx_;
};

TEST_F(SessionTest, AliasesPersistAcrossQueries) {
  fx_.Lines("v := 41 ;");
  EXPECT_EQ(fx_.One("v + 1"), "v+1 = 42");
  fx_.session().ClearAliases();
  EXPECT_FALSE(fx_.session().Query("v + 1").ok);
}

TEST_F(SessionTest, DeclaredVariablesPersistAcrossQueries) {
  fx_.Lines("int counter ;");
  fx_.Lines("counter = 7 ;");
  EXPECT_EQ(fx_.One("{counter}"), "7");
}

TEST_F(SessionTest, OutputTruncationGuard) {
  fx_.session().options().max_output_values = 10;
  QueryResult r = fx_.session().Query("1..100");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.value_count(), 10u);
  EXPECT_EQ(r.lines.back(), "...");
  // The "..." marker is a line but not a value: it has no span.
  EXPECT_EQ(r.lines.size(), r.value_count() + 1);
}

// Truncation means a value past the limit exists: a result of exactly
// max_output_values values is whole.
TEST_F(SessionTest, TruncationNeedsAValuePastTheLimit) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3, 4});
  fx_.session().options().max_output_values = 3;
  QueryResult exact = fx_.session().Query("x[..3]");
  EXPECT_TRUE(exact.ok);
  EXPECT_FALSE(exact.truncated);
  EXPECT_EQ(exact.value_count(), 3u);
  EXPECT_EQ(exact.lines.size(), 3u);
  EXPECT_EQ(exact.lines.back(), "x[2] = 3");

  QueryResult over = fx_.session().Query("x[..4]");
  EXPECT_TRUE(over.ok);
  EXPECT_TRUE(over.truncated);
  EXPECT_EQ(over.value_count(), 3u);
  EXPECT_EQ(over.lines.back(), "...");

  // A fault while looking for the value past the limit fails the query, as
  // it would with no limit.
  QueryResult fault = fx_.session().Query("x[..3], *(int *)0 + 1");
  EXPECT_FALSE(fault.ok);
  EXPECT_FALSE(fault.truncated);
  EXPECT_EQ(fault.value_count(), 3u);
  EXPECT_EQ(fault.lines.size(), 3u);
}

TEST_F(SessionTest, DriveSkipsFormatting) {
  scenarios::BuildIntArray(fx_.image(), "x", {1, 2, 3});
  EXPECT_EQ(fx_.session().Drive("x[..3]"), 3u);
  // The one drive loop counts values on this path too.
  EXPECT_EQ(fx_.session().context().counters().values_produced, 3u);
  // Drive throws on errors rather than returning a QueryResult.
  EXPECT_THROW(fx_.session().Drive("nosuch"), DuelError);
}

TEST_F(SessionTest, SpansMatchLines) {
  scenarios::BuildIntArray(fx_.image(), "x", {5, 0, 7});
  QueryResult r = fx_.session().Query("x[..3] >? 1");
  ASSERT_EQ(r.value_count(), 2u);
  EXPECT_EQ(r.SymText(0), "x[0]");
  EXPECT_EQ(r.ValueText(0), "5");
  EXPECT_EQ(r.lines[0], "x[0] = 5");
  // A constant's symbolic is its value: it prints once, and both halves
  // read the whole line.
  QueryResult c = fx_.session().Query("1");
  ASSERT_EQ(c.lines, std::vector<std::string>{"1"});
  EXPECT_EQ(c.SymText(0), "1");
  EXPECT_EQ(c.ValueText(0), "1");
  // With symbolics off there is no symbolic to split off.
  fx_.session().options().eval.sym_mode = EvalOptions::SymMode::kOff;
  QueryResult off = fx_.session().Query("x[..3] >? 1");
  ASSERT_EQ(off.value_count(), 2u);
  EXPECT_EQ(off.SymText(1), "");
  EXPECT_EQ(off.ValueText(1), "7");
  fx_.session().options().eval.sym_mode = EvalOptions::SymMode::kOn;
  // Formatting reads the lvalue: a fault there leaves no span without a line.
  QueryResult fault = fx_.session().Query("(x[0], x[100000000])");
  EXPECT_FALSE(fault.ok);
  EXPECT_NE(fault.error.find("Illegal memory reference"), std::string::npos) << fault.error;
  ASSERT_EQ(fault.lines.size(), 1u);
  EXPECT_EQ(fault.value_count(), fault.lines.size());
  // A truncated result has one line more than it has spans: the "...".
  fx_.session().options().max_output_values = 2;
  QueryResult cut = fx_.session().Query("x[..3]");
  EXPECT_TRUE(cut.truncated);
  ASSERT_EQ(cut.value_count(), 2u);
  EXPECT_EQ(cut.lines.size(), cut.value_count() + 1);
  EXPECT_EQ(cut.SymText(1), "x[1]");
  EXPECT_EQ(cut.ValueText(1), "0");
}

TEST_F(SessionTest, ResultTextJoinsLinesAndError) {
  QueryResult ok = fx_.session().Query("(1,2)");
  EXPECT_EQ(ok.Text(), "1\n2\n");
  QueryResult bad = fx_.session().Query("nosuch");
  EXPECT_NE(bad.Text().find("unknown name"), std::string::npos);
}

TEST_F(SessionTest, OptionChangesTakeEffectNextQuery) {
  scenarios::BuildIntArray(fx_.image(), "x", {5});
  EXPECT_EQ(fx_.One("x[0] >? 1"), "x[0] = 5");
  fx_.session().options().eval.sym_mode = EvalOptions::SymMode::kOff;
  EXPECT_EQ(fx_.One("x[0] >? 1"), "5");
}

TEST_F(SessionTest, CountersAccumulate) {
  fx_.session().Drive("#/(1..100)");
  EXPECT_GT(fx_.session().context().counters().eval_steps, 100u);
  fx_.session().Query("1..5");
  // Drive's one value plus Query's five: both paths count.
  EXPECT_EQ(fx_.session().context().counters().values_produced, 6u);
}

TEST_F(SessionTest, HistoryRecordsQueries) {
  fx_.session().Query("1+1");
  fx_.session().Query("2+2");
  fx_.session().Query("2+2");  // immediate repeat collapses
  ASSERT_EQ(fx_.session().history().size(), 2u);
  EXPECT_EQ(fx_.session().history()[0], "1+1");
  EXPECT_EQ(fx_.session().history()[1], "2+2");
  fx_.session().ClearHistory();
  EXPECT_TRUE(fx_.session().history().empty());
}

TEST_F(SessionTest, HistoryDepthIsBounded) {
  fx_.session().options().max_history = 3;
  for (int i = 0; i < 10; ++i) {
    fx_.session().Query(std::to_string(i));
  }
  ASSERT_EQ(fx_.session().history().size(), 3u);
  EXPECT_EQ(fx_.session().history().front(), "7");
}

class OutputFormatTest : public ::testing::Test {
 protected:
  DuelFixture fx_;
};

TEST_F(OutputFormatTest, PlainConstantsPrintOnce) {
  // "5 = 5" would be silly; constants print bare.
  EXPECT_EQ(fx_.One("5"), "5");
  EXPECT_EQ(fx_.One("'a'"), "'a'");
}

TEST_F(OutputFormatTest, NegativeNumbersAndLongs) {
  EXPECT_EQ(fx_.One("-5"), "-5");  // sym equals the value text: printed once
  EXPECT_EQ(fx_.One("10000000000"), "10000000000");
  EXPECT_EQ(fx_.One("0x10"), "16");  // hex literals display in decimal
  target::ImageBuilder b(fx_.image());
  b.PokeI64(b.Global("lo", b.Long()), std::numeric_limits<int64_t>::min());
  b.PokeU64(b.Global("hi", fx_.image().types().ULong()), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(fx_.One("lo"), "lo = -9223372036854775808");
  EXPECT_EQ(fx_.One("hi"), "hi = 18446744073709551615");
}

TEST_F(OutputFormatTest, PointerFormats) {
  target::ImageBuilder b(fx_.image());
  target::Addr p = b.Global("p", b.Ptr(b.Int()));
  b.PokePtr(p, 0x12345);
  EXPECT_EQ(fx_.One("p"), "p = 0x12345");
  b.PokePtr(p, 0);
  EXPECT_EQ(fx_.One("p"), "p = 0x0");
}

TEST_F(OutputFormatTest, StringTruncationCap) {
  target::ImageBuilder b(fx_.image());
  target::Addr s = b.Global("s", b.Ptr(b.Char()));
  b.PokePtr(s, b.String(std::string(200, 'x')));
  fx_.session().options().eval.max_string_display = 10;
  std::string line = fx_.One("s");
  EXPECT_EQ(line, "s = \"xxxxxxxxxx\"...");
}

TEST_F(OutputFormatTest, UnterminatedStringAtSegmentEnd) {
  // A char* into memory with no NUL before invalid space: display truncates
  // rather than faulting.
  target::ImageBuilder b(fx_.image());
  target::Addr s = b.Global("s", b.Ptr(b.Char()));
  target::Addr data = fx_.image().memory().Allocate(4, 1);
  fx_.image().memory().Write(data, "abcd", 4);
  b.PokePtr(s, data);
  // Heap beyond the 4 bytes may be allocated by other objects; at minimum
  // this must not throw.
  std::string line = fx_.One("s");
  EXPECT_NE(line.find("\"abcd"), std::string::npos) << line;
}

TEST_F(OutputFormatTest, NestedStructDisplayDepthCapped) {
  target::ImageBuilder b(fx_.image());
  target::TypeRef core = b.Struct("core").Field("v", b.Int()).Build();
  target::TypeRef inner = b.Struct("inner").Field("c", core).Build();
  target::TypeRef mid = b.Struct("mid").Field("i", inner).Build();
  target::TypeRef outer = b.Struct("outer").Field("m", mid).Build();
  b.Global("deep", outer);
  std::string line = fx_.One("deep");
  EXPECT_NE(line.find("{...}"), std::string::npos) << line;
}

TEST_F(OutputFormatTest, ArrayElision) {
  scenarios::BuildIntArray(fx_.image(), "big", std::vector<int32_t>(50, 1));
  std::string line = fx_.One("big");
  EXPECT_NE(line.find(", ...}"), std::string::npos) << line;
}

TEST_F(OutputFormatTest, VoidAndFunctionValues) {
  EXPECT_EQ(fx_.One("(void)5"), "(void)5 = void");
  EXPECT_EQ(fx_.One("printf"), "printf = <function>");
}

class PrebindTest : public ::testing::Test {
 protected:
  PrebindTest() {
    scenarios::BuildIntArray(fx_.image(), "x", {3, -1, 4});
    target::ImageBuilder b(fx_.image());
    target::Addr i = b.Global("i", b.Int());
    b.PokeI32(i, 5);
  }

  DuelFixture fx_;
};

TEST_F(PrebindTest, ResultsUnchangedWithPrebinding) {
  EXPECT_EQ(fx_.Lines("x[..3] >? 0"),
            (std::vector<std::string>{"x[0] = 3", "x[2] = 4"}));
  EXPECT_EQ(fx_.One("#/((1..100)+i)"), "100");
}

TEST_F(PrebindTest, PrebindingSkipsBackendLookups) {
  auto symbol_lookups = [&] {
    return fx_.backend().instr().calls(obs::NarrowCall::kSymbolLookup);
  };
  fx_.session().Drive("#/((1..100)+i)");  // the analyze stage binds i once
  uint64_t before = symbol_lookups();
  fx_.session().Drive("#/((1..100)+i)");
  uint64_t per_query = symbol_lookups() - before;
  // At most one lookup at bind time (plus the typedef probe pattern), not 100.
  EXPECT_LT(per_query, 10u);

  // The same text over a bare parse (no annotations) looks i up per value.
  EvalContext& ctx = fx_.session().context();
  ParseResult parsed = Parser("#/((1..100)+i)").Parse();
  before = symbol_lookups();
  ctx.BeginQuery();
  EvalEngine engine(ctx);
  engine.Start(*parsed.root, parsed.num_nodes);
  while (engine.Next()) {
  }
  EXPECT_GE(symbol_lookups() - before, 100u);
}

TEST_F(PrebindTest, AliasedNamesAreNotPrebound) {
  fx_.Lines("i := 99 ;");  // session alias shadows the global
  EXPECT_EQ(fx_.One("{i}"), "99");
}

TEST_F(PrebindTest, NamesDefinedInTheQueryAreNotPrebound) {
  // `i` is :=-defined inside the query; binding must leave it dynamic.
  std::vector<std::string> lines = fx_.Lines("i := 7 => {i} + 1");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "7+1 = 8");
}

TEST_F(PrebindTest, WithScopedNamesStayDynamic) {
  scenarios::BuildList(fx_.image(), "L", {5, 6});
  // `value` must resolve as a member, even though binding ran.
  EXPECT_EQ(fx_.Lines("L-->next->value"),
            (std::vector<std::string>{"L->value = 5", "L->next->value = 6"}));
  // A global named like a member must not capture member references.
  target::ImageBuilder b(fx_.image());
  target::Addr g = b.Global("value", b.Int());
  b.PokeI32(g, 777);
  EXPECT_EQ(fx_.Lines("L-->next->value"),
            (std::vector<std::string>{"L->value = 5", "L->next->value = 6"}));
  EXPECT_EQ(fx_.One("{value}"), "777");  // ...but still resolves outside scopes
}

}  // namespace
}  // namespace duel
