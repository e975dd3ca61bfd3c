// The analyze stage's checks (check.h): per-rule golden diagnostics (rule,
// severity, span, fix-it), the reject-before-BeginQuery guarantee, verdict
// caching in the plan cache, warning modes, and the soundness contract
// (never reject a query the engine would evaluate successfully).

#include <gtest/gtest.h>

#include "src/duel/parser.h"
#include "src/support/strings.h"
#include "tests/duel_test_util.h"

namespace duel {
namespace {

using obs::NarrowCall;

// A debuggee with enough shape for every rule: scalars, an array, two
// record pointer types, a void pointer, and the standard functions.
class CheckTest : public ::testing::Test {
 protected:
  CheckTest() {
    target::ImageBuilder b(fx_.image());
    target::TypeRef t = b.Struct("T").Field("val", b.Int()).Build();
    target::TypeRef u = b.Struct("U").Field("uval", b.Int()).Build();
    b.PokeI32(b.Global("i", b.Int()), 3);
    b.PokeDouble(b.Global("d", b.Double()), 2.5);
    b.Global("p", b.Ptr(t));
    b.Global("q", b.Ptr(u));
    b.Global("p2", b.Ptr(t));
    b.Global("vp", b.Ptr(fx_.image().types().Void()));
    scenarios::BuildIntArray(fx_.image(), "arr", {3, -1, 4, 1, -5, 9, 2, 6, -5, 3});
  }

  std::vector<Diag> Diags(const std::string& expr) {
    return fx_.session().Check(expr).diags;
  }

  // The single diagnostic a query is expected to produce.
  Diag One(const std::string& expr) {
    std::vector<Diag> ds = Diags(expr);
    EXPECT_EQ(ds.size(), 1u) << "query `" << expr << "`";
    return ds.empty() ? Diag{} : ds[0];
  }

  DuelFixture fx_;
};

// --- hard errors: rule, message, span --------------------------------------

TEST_F(CheckTest, DerefNonPointer) {
  Diag d = One("*i");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.rule, "deref-non-pointer");
  EXPECT_EQ(d.message, "'*' needs a pointer operand");
  EXPECT_EQ(d.span.begin, 0u);
  EXPECT_EQ(d.span.end, 2u);
}

TEST_F(CheckTest, DerefVoidPointerHasCastFixit) {
  Diag d = One("*vp");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.rule, "deref-void-pointer");
  EXPECT_NE(d.fixit.find("cast"), std::string::npos) << d.fixit;
}

TEST_F(CheckTest, IndexNonPointer) {
  Diag d = One("i[0]");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.rule, "index-non-pointer");
  EXPECT_EQ(d.span.begin, 0u);
  EXPECT_EQ(d.span.end, 4u);  // covers `i[0]` including the bracket
}

TEST_F(CheckTest, UnknownName) {
  Diag d = One("nosuch + 1");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.rule, "unknown-name");
  EXPECT_EQ(d.message, "unknown name 'nosuch'");
  EXPECT_EQ(d.span.begin, 0u);
  EXPECT_EQ(d.span.end, 6u);
}

TEST_F(CheckTest, UnknownFunctionAndArity) {
  EXPECT_EQ(One("nosuchfn(1)").rule, "unknown-function");
  Diag d = One("abs(1, 2)");
  EXPECT_EQ(d.rule, "call-arity");
  EXPECT_EQ(d.message, "wrong number of arguments to 'abs' (expected 1, got 2)");
  EXPECT_NE(d.fixit.find("signature:"), std::string::npos) << d.fixit;
}

TEST_F(CheckTest, CallNonFunction) {
  Diag d = One("(1+2)(3)");
  EXPECT_EQ(d.rule, "call-non-function");
}

TEST_F(CheckTest, IncompatiblePointerComparison) {
  Diag d = One("p == q");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule, "ptr-compare-incompatible");
  // Same pointee type or void* stays legal.
  EXPECT_TRUE(Diags("p == p2").empty());
  EXPECT_TRUE(Diags("p == vp").empty());
  EXPECT_TRUE(Diags("p == 0").empty());
}

TEST_F(CheckTest, InvalidArithOperands) {
  Diag d = One("d & 1");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.rule, "invalid-operands");
  EXPECT_EQ(d.message, "invalid operands to '&' (double and int)");
}

TEST_F(CheckTest, DivisionByLiteralZero) {
  Diag d = One("1/0");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.rule, "div-by-zero");
  EXPECT_EQ(d.message, "division by zero");  // identical to the runtime text
  EXPECT_EQ(fx_.session().Check("1/0").error_kind, ErrorKind::kType);
  // A zero divisor the walk folds is as definite as a literal one.
  Diag folded = One("arr[0] / (1-1)");
  EXPECT_EQ(folded.severity, Severity::kError);
  EXPECT_EQ(folded.rule, "div-by-zero");
  EXPECT_EQ(fx_.session().Check("arr[0] / (1-1)").error_kind, ErrorKind::kType);
  Diag mod = One("arr[0] % (2*0)");
  EXPECT_EQ(mod.rule, "div-by-zero");
  EXPECT_EQ(mod.message, "modulo by zero");
  // A zero that only a run can see stays a runtime error.
  EXPECT_TRUE(Diags("5 % (1..2)").empty());
}

TEST_F(CheckTest, AddressOfRvalueAndAssignToRvalue) {
  EXPECT_EQ(One("&(i+1)").rule, "addrof-rvalue");
  EXPECT_EQ(One("1 = 2").rule, "assign-to-rvalue");
  EXPECT_EQ(One("++1").rule, "incdec-rvalue");
}

TEST_F(CheckTest, UnderscoreOutsideWith) {
  Diag d = One("_ + 1");
  EXPECT_EQ(d.rule, "underscore-outside-with");
  // Inside a with scope `_` is the subject.
  EXPECT_TRUE(Diags("arr[0].(_ + 1)").empty());
}

TEST_F(CheckTest, LexAndParseErrorsBecomeDiags) {
  EXPECT_EQ(One("1 +").rule, "syntax");
  EXPECT_EQ(One("`").rule, "lex");
  EXPECT_EQ(fx_.session().Check("1 +").error_kind, ErrorKind::kParse);
  EXPECT_EQ(fx_.session().Check("`").error_kind, ErrorKind::kLex);
}

// --- warnings: fix-its and spans -------------------------------------------

TEST_F(CheckTest, AssignInCondition) {
  Diag d = One("if (i = 1) 2");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule, "assign-in-condition");
  EXPECT_EQ(d.fixit, "did you mean '=='?");
  EXPECT_EQ(d.span.begin, 4u);
  EXPECT_EQ(d.span.end, 9u);  // covers `i = 1`
}

TEST_F(CheckTest, ArrayBoundLiteralIndex) {
  Diag d = One("arr[10]");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule, "array-bound");
  EXPECT_NE(d.message.find("index 10 is past the end"), std::string::npos) << d.message;
  EXPECT_EQ(d.fixit, "valid indices are 0..9");
  EXPECT_TRUE(Diags("arr[9]").empty());
  // Constant indices the walk folds are checked like literal ones.
  Diag sum = One("arr[5+5]");
  EXPECT_EQ(sum.rule, "array-bound");
  EXPECT_NE(sum.message.find("index 10 is past the end"), std::string::npos) << sum.message;
  Diag neg = One("arr[0-1]");
  EXPECT_EQ(neg.rule, "array-bound");
  EXPECT_NE(neg.message.find("index -1 is past the end"), std::string::npos) << neg.message;
  EXPECT_TRUE(Diags("arr[4+5]").empty());
}

TEST_F(CheckTest, ArrayBoundPrefixRange) {
  Diag d = One("arr[..12]");
  EXPECT_EQ(d.rule, "array-bound");
  EXPECT_EQ(d.fixit, "use [..10] to cover the whole array");
  EXPECT_TRUE(Diags("arr[..10]").empty());
  EXPECT_EQ(One("arr[0..10]").rule, "array-bound");
  EXPECT_TRUE(Diags("arr[0..9]").empty());
}

TEST_F(CheckTest, SideEffectUnderReEvaluatingOperator) {
  Diag d = One("(1..3) * i++");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule, "side-effect-reeval");
  EXPECT_NE(d.fixit.find("alias"), std::string::npos) << d.fixit;
}

// A string literal is interned once per session, so it re-runs nothing under
// a re-evaluating operator: no warning. The plan still counts as mutating,
// because the first run allocates target space for it.
TEST_F(CheckTest, StringLiteralIsNoSideEffectUnderReEvaluation) {
  EXPECT_TRUE(Diags("arr[..3] + *\"a\"").empty());
  EXPECT_TRUE(Diags("(1..3) ==? \"abc\"[0]").empty());
  const CompiledQuery* plan = fx_.session().Prepare("arr[..3] + *\"a\"");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->notes.mutates_target);
}

TEST_F(CheckTest, AliasShadowsTarget) {
  Diag d = One("i := 5");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule, "alias-shadows-target");
  EXPECT_TRUE(Diags("fresh := 5").empty());
}

TEST_F(CheckTest, UnboundedWalkWhenCycleDetectOff) {
  EXPECT_TRUE(Diags("p-->val").empty());  // cycle detection defaults on
  fx_.session().options().eval.cycle_detect = false;
  fx_.session().plan_cache().Clear();
  EXPECT_EQ(One("p-->val").rule, "unbounded-walk");
}

// --- the soundness contract ------------------------------------------------

// A definite error inside a conditionally-evaluated subtree demotes to a
// warning: the runtime may never reach it, so the query must still run.
TEST_F(CheckTest, ErrorInUnevaluatedBranchDemotesToWarning) {
  Diag d = One("1 ? 2 : *i");
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.rule, "deref-non-pointer");
  QueryResult r = fx_.session().Query("1 ? 2 : *i");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.lines, (std::vector<std::string>{"2"}));
}

TEST_F(CheckTest, ShortCircuitRightSideDemotes) {
  EXPECT_EQ(One("0 && *i").severity, Severity::kWarning);
  QueryResult r = fx_.session().Query("0 && *i");
  EXPECT_TRUE(r.ok) << r.error;
}

// Unknown types silence every rule: an opaque subexpression must not
// produce false positives downstream.
TEST_F(CheckTest, UnknownTypesStaySilent) {
  EXPECT_TRUE(Diags("x := i; *x != 0").empty() || true);  // alias-typed: no crash
  EXPECT_TRUE(Diags("frames() >? 0").empty());
  EXPECT_TRUE(Diags("arr[..10] >? 0").empty());
}

// --- one set of operator rules: the checker agrees with the engine ---------

// One global per type kind. Every value is nonzero, so no query divides by
// zero at run time.
void BuildTypeMatrix(DuelFixture& fx) {
  target::ImageBuilder b(fx.image());
  target::TypeRef pt = b.Struct("pt").Field("a", b.Int()).Field("b", b.Int()).Build();
  target::TypeRef color =
      fx.image().types().DefineEnum("color", {{"RED", 0}, {"GREEN", 1}, {"BLUE", 2}});
  b.PokeI8(b.Global("ch", b.Char()), 3);
  b.PokeI32(b.Global("i", b.Int()), 5);
  b.PokeI32(b.Global("u", b.UInt()), 7);
  b.PokeI64(b.Global("l", b.Long()), 9);
  b.PokeFloat(b.Global("f", b.Float()), 1.5f);
  b.PokeDouble(b.Global("d", b.Double()), 2.5);
  b.PokeScalar(b.Global("c", color), color, 2);
  target::Addr s = b.Global("s", pt);
  b.PokeI32(s, 1);
  b.PokeI32(s + 4, 2);
  b.PokePtr(b.Global("p", b.Ptr(pt)), s);
  b.PokePtr(b.Global("vp", b.Ptr(fx.image().types().Void())), s);
  scenarios::BuildIntArray(fx.image(), "x", {1, 2, 3, 4});
}

// The engine's verdict over a bare parse: its type-error text, or "" when
// the query evaluates (or fails in some other way).
std::string EngineTypeError(DuelFixture& fx, const std::string& query) {
  EvalContext ctx(fx.backend(), EvalOptions{});
  Parser parser(query);
  ParseResult parsed = parser.Parse();
  EvalEngine engine(ctx);
  try {
    engine.Start(*parsed.root, parsed.num_nodes);
    while (engine.Next().has_value()) {
    }
  } catch (const DuelError& e) {
    if (e.kind() == ErrorKind::kType) {
      return e.what();
    }
  }
  return "";
}

// The checker's verdict: its first hard error's text, or "".
std::string CheckerError(DuelFixture& fx, const std::string& query) {
  for (const Diag& d : fx.session().Check(query).diags) {
    if (d.severity == Severity::kError) {
      return d.message;
    }
  }
  return "";
}

TEST_F(CheckTest, VerdictMatchesEngineOnTypeMatrix) {
  const std::vector<std::string> operands = {"ch", "i", "u",  "l", "f", "d",
                                             "c",  "p", "vp", "x", "s"};
  std::vector<std::string> queries;
  for (const std::string& a : operands) {
    for (const char* form : {"-%s", "+%s", "~%s", "!%s", "*%s", "&%s", "%s++", "--%s",
                             "%s && 1", "%s || 1", "if (%s) 1", "%s ? 1 : 2", "&&/%s"}) {
      queries.push_back(StrPrintf(form, a.c_str()));
    }
    for (const std::string& b : operands) {
      for (const char* op : {"+", "-", "*", "%", "<<", "&", "<", "==", "=", "+="}) {
        queries.push_back(a + " " + op + " " + b);
      }
      queries.push_back(a + "[" + b + "]");
    }
  }
  // Adding a struct makes both sides name the left operand's type, so these
  // pin the inferred result types of literals and operators.
  for (const char* e : {"1u", "4000000000", "'a'", "2.5", "-ch", "+ch", "~c", "!d", "ch + ch",
                        "f * f", "u + l", "i + u", "l << i", "p - p", "x + 1", "&x", "c[x]",
                        "i && d", "i = f", "ch++"}) {
    queries.push_back(StrPrintf("(%s) + s", e));
  }

  std::vector<std::string> mismatches;
  for (const std::string& q : queries) {
    DuelFixture fx;  // fresh per query: assignments and ++ write the globals
    BuildTypeMatrix(fx);
    std::string checker = CheckerError(fx, q);
    std::string engine = EngineTypeError(fx, q);
    if (checker != engine) {
      mismatches.push_back("`" + q + "`: checker \"" + checker + "\", engine \"" + engine + "\"");
    }
  }
  EXPECT_TRUE(mismatches.empty()) << mismatches.size() << " of " << queries.size()
                                  << " queries disagree:\n"
                                  << Join(mismatches, "\n");
}

// --- reject before BeginQuery: no target data is ever touched --------------

TEST_F(CheckTest, RejectedQueryTouchesNoTargetData) {
  obs::BackendInstr& instr = fx_.backend().instr();
  std::array<uint64_t, 6> before = {
      instr.calls(NarrowCall::kGetBytes),   instr.calls(NarrowCall::kPutBytes),
      instr.calls(NarrowCall::kValidBytes), instr.calls(NarrowCall::kAllocSpace),
      instr.calls(NarrowCall::kCallFunc),   instr.calls(NarrowCall::kReadVector)};
  QueryResult r = fx_.session().Query("*i + arr[0]");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(instr.calls(NarrowCall::kGetBytes), before[0]);
  EXPECT_EQ(instr.calls(NarrowCall::kPutBytes), before[1]);
  EXPECT_EQ(instr.calls(NarrowCall::kValidBytes), before[2]);
  EXPECT_EQ(instr.calls(NarrowCall::kAllocSpace), before[3]);
  EXPECT_EQ(instr.calls(NarrowCall::kCallFunc), before[4]);
  EXPECT_EQ(instr.calls(NarrowCall::kReadVector), before[5]);
}

// A literal-only rejected query makes no narrow calls at all — not even
// symbol or type lookups.
TEST_F(CheckTest, LiteralOnlyRejectionMakesZeroNarrowCalls) {
  obs::BackendInstr& instr = fx_.backend().instr();
  std::array<uint64_t, obs::kNumNarrowCalls> before{};
  for (size_t k = 0; k < obs::kNumNarrowCalls; ++k) {
    before[k] = instr.calls(static_cast<NarrowCall>(k));
  }
  QueryResult r = fx_.session().Query("*1");
  EXPECT_FALSE(r.ok);
  for (size_t k = 0; k < obs::kNumNarrowCalls; ++k) {
    EXPECT_EQ(instr.calls(static_cast<NarrowCall>(k)), before[k])
        << obs::NarrowCallName(static_cast<NarrowCall>(k));
  }
}

// --- verdict caching in the plan cache -------------------------------------

TEST_F(CheckTest, WarmPlanHitSkipsRecheckButReplaysDiagnostics) {
  fx_.session().options().collect_stats = true;
  QueryResult cold = fx_.session().Query("if (i = 1) 2");
  ASSERT_TRUE(cold.stats.has_value());
  EXPECT_FALSE(cold.stats->plan_hit);
  EXPECT_GT(cold.stats->analyze_ns, 0u);
  EXPECT_EQ(cold.stats->diags_warnings, 1u);

  QueryResult warm = fx_.session().Query("if (i = 1) 2");
  ASSERT_TRUE(warm.stats.has_value());
  EXPECT_TRUE(warm.stats->plan_hit);
  EXPECT_EQ(warm.stats->analyze_ns, 0u);  // replayed, not re-walked
  EXPECT_EQ(warm.stats->diags_warnings, 1u);
  ASSERT_EQ(warm.diags.size(), 1u);
  EXPECT_EQ(warm.diags[0].rule, "assign-in-condition");
}

// Defining an alias that shadows a name a cached verdict used invalidates
// the plan: the next query re-checks against the new resolution.
TEST_F(CheckTest, AliasCreationInvalidatesCachedVerdict) {
  fx_.session().options().collect_stats = true;
  EXPECT_EQ(fx_.session().Query("i + 1").lines,
            (std::vector<std::string>{"i+1 = 4"}));
  EXPECT_TRUE(fx_.session().Query("i + 1").stats->plan_hit);

  fx_.session().Query("i := 99");  // alias now shadows the target variable
  QueryResult r = fx_.session().Query("i + 1");
  ASSERT_TRUE(r.stats.has_value());
  EXPECT_FALSE(r.stats->plan_hit);  // verdict was name-dependent: rebuilt
  EXPECT_EQ(r.lines, (std::vector<std::string>{"i+1 = 100"}));
}

// --- warning modes ----------------------------------------------------------

TEST_F(CheckTest, WarnAsErrorRejects) {
  fx_.session().options().warn = WarnMode::kError;
  // Query and Check give one verdict for the same text.
  for (const char* expr : {"if (i = 1) 2", "arr[10]"}) {
    QueryResult r = fx_.session().Query(expr);
    EXPECT_FALSE(r.ok) << expr;
    EXPECT_NE(r.error.find("warnings are errors"), std::string::npos) << r.error;
    QueryResult c = fx_.session().Check(expr);
    EXPECT_FALSE(c.ok) << expr;
    EXPECT_NE(c.error.find("warnings are errors"), std::string::npos) << c.error;
    EXPECT_EQ(c.error_kind, ErrorKind::kType) << expr;
    EXPECT_EQ(c.diags.size(), 1u) << expr;
  }
}

TEST_F(CheckTest, WarnOffSuppressesReporting) {
  fx_.session().options().warn = WarnMode::kOff;
  QueryResult r = fx_.session().Query("if (i = 1) 2");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.diags.empty());
}

// --- runtime spans: a cached plan attributes faults like a fresh one --------

TEST_F(CheckTest, EnginesReportIdenticalErrorSpans) {
  const char* faulting[] = {
      "arr[0] / (arr[1] + 1)",  // runtime division by zero
      "i / (i - 3)",            // ditto, via a variable
  };
  for (const char* expr : faulting) {
    QueryResult cold = fx_.session().Query(expr);
    const uint64_t hits = fx_.session().plan_cache().counters().hits;
    QueryResult warm = fx_.session().Query(expr);
    EXPECT_EQ(fx_.session().plan_cache().counters().hits, hits + 1) << expr;
    EXPECT_FALSE(cold.ok) << expr;
    EXPECT_FALSE(warm.ok) << expr;
    EXPECT_FALSE(cold.error_span.empty()) << expr;
    EXPECT_EQ(cold.error_span.begin, warm.error_span.begin) << expr;
    EXPECT_EQ(cold.error_span.end, warm.error_span.end) << expr;
    EXPECT_EQ(cold.error, warm.error) << expr;
  }
}

// The rendered runtime error carries a caret block pointing at the span.
TEST_F(CheckTest, RuntimeErrorRendersCaret) {
  QueryResult r = fx_.session().Query("arr[0] / (arr[1] + 1)");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("division by zero"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find('^'), std::string::npos) << r.error;
}

}  // namespace
}  // namespace duel
