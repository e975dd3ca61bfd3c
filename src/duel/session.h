// Session: the `duel expr` command.
//
// "Duel's top-level evaluation command 'drives' its expression argument and
// prints all of its values." A Session owns the evaluation context (so
// aliases persist across queries, like the original), parses each query,
// drives the evaluation engine, and renders "sym = value" lines.

#ifndef DUEL_DUEL_SESSION_H_
#define DUEL_DUEL_SESSION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/dbg/backend.h"
#include "src/duel/check.h"
#include "src/duel/diag.h"
#include "src/duel/eval.h"
#include "src/duel/evalctx.h"
#include "src/duel/plan.h"
#include "src/duel/value.h"
#include "src/support/error.h"
#include "src/support/obs/metrics.h"
#include "src/support/obs/profile.h"
#include "src/support/obs/trace.h"

namespace duel {

// What the session does with analyze-stage warnings. Errors always reject the
// query; warnings default to being reported alongside the results.
enum class WarnMode {
  kOff,    // discard warnings
  kOn,     // report warnings, evaluate anyway
  kError,  // treat warnings as errors: reject the query
};

struct SessionOptions {
  EngineKind engine = EngineKind::kStateMachine;  // unused; see EngineKind (eval.h)
  EvalOptions eval;
  size_t max_output_values = 100'000;  // guard against unbounded output
  size_t max_history = 100;            // query history depth (0 = off)

  // Plan cache: reuse the compiled half of the pipeline (tokens + AST +
  // annotations) across queries with the same text. Invalidation is
  // epoch-based (see plan.h).
  bool plan_cache = true;

  // The analyze stage (check.h) runs static type inference + lint before
  // execute. A query with a hard error is always rejected before BeginQuery
  // — no target data is ever touched for it; `warn` decides what happens to
  // warnings (under kError, Query and Check both reject on any warning).
  WarnMode warn = WarnMode::kOn;

  // Per-query execution governor (support/governor.h): when any limit is
  // set, each query runs under a wall-clock deadline, an eval-step budget,
  // and a target-bytes-read budget, and can be cancelled from another thread
  // mid-flight (the serve layer's runaway protection; `govern` in the REPL).
  // A trip aborts the query with a span-carrying kCancel diagnostic, keeping
  // the values produced so far as partial results. All-zero limits (the
  // default) leave it unarmed.
  GovernorLimits governor_limits;

  // Observability (see src/support/obs/): collect_stats assembles an
  // obs::QueryStats per query (phase timings, counter deltas, narrow-call
  // latency histograms); profile additionally attributes every eval step to
  // its AST node. Both are off by default — the hot path stays uninstrumented.
  bool collect_stats = false;
  bool profile = false;
};

struct QueryResult {
  bool ok = true;
  std::vector<std::string> lines;  // what the duel command printed: "sym = value"
  // Per value line, the length of its symbolic prefix: 0 when none, the
  // whole line when the value printed once ("5", not "5 = 5").
  std::vector<uint32_t> spans;
  std::string error;       // rendered error when !ok
  bool truncated = false;  // values went on past max_output_values; lines end in "..."

  uint64_t value_count() const { return spans.size(); }
  // Views into value line i: its symbolic ("" when none) and its value.
  std::string_view SymText(size_t i) const;
  std::string_view ValueText(size_t i) const;

  // Check-stage diagnostics for this query (errors when rejected, plus any
  // warnings under WarnMode::kOn). Not part of Text() — the REPL and MI
  // render them explicitly, so golden value output stays stable.
  std::vector<Diag> diags;

  // The failing subexpression's span when !ok (empty when unattributed).
  SourceRange error_span;

  // The error's kind when !ok (kCancel distinguishes a governor trip from a
  // genuine evaluation failure; the serve layer counts them separately).
  std::optional<ErrorKind> error_kind;

  // Filled when SessionOptions::collect_stats (or ::profile) was on.
  std::optional<obs::QueryStats> stats;

  // Joined lines (+ error if any), each terminated by '\n'.
  std::string Text() const;
};

// Called with each value a query produces, inside the drive loop while the
// query's data epoch is live (so it may read through the session's context,
// e.g. EvalContext::Truthy). A DuelError it throws fails the query. The
// value, like every value a query makes, is valid only until the next
// query begins: its symbolic and any large rvalue image live in the
// session's query arena. A hook that keeps one must re-home it
// (Value::Rehome) or copy out what it needs.
using ValueHook = std::function<void(const Value&)>;

class Session {
 public:
  explicit Session(dbg::DebuggerBackend& backend, SessionOptions opts = {});

  // Evaluates one DUEL query, returning everything it printed; `on_value`,
  // when set, sees every produced value.
  QueryResult Query(const std::string& expr, const ValueHook& on_value = {});

  // Runs only the front half of the pipeline (lex → parse → analyze) and
  // returns the diagnostics without executing anything. The
  // compiled plan is cached exactly as Query would cache it, so a
  // subsequent Query of the same text is a warm hit. REPL `check <expr>`
  // and MI -duel-check.
  QueryResult Check(const std::string& expr);

  // Compiles `expr` (or reuses the cached plan) and returns the plan without
  // executing — the compile-time half only, touching no target data. The
  // serve layer classifies queries read-only vs mutating from the returned
  // AST + check verdict before choosing a lock. Returns nullptr when the
  // text fails to lex/parse (a following Query reproduces the error). The
  // pointer stays valid until the next Prepare/Query/Check on this session.
  const CompiledQuery* Prepare(const std::string& expr);

  // Evaluates the plan the last Prepare returned, in the symbol epoch that
  // Prepare opened: one plan lookup and one epoch for the pair. The serve
  // layer prepares a query to pick its lock, then runs it under that lock.
  QueryResult Query(const CompiledQuery& prepared, const ValueHook& on_value = {});

  // Drives a query and discards output lines; returns the number of values
  // (used by benchmarks to avoid measuring string formatting).
  uint64_t Drive(const std::string& expr);

  EvalContext& context() { return ctx_; }
  SessionOptions& options() { return opts_; }
  void ClearAliases() { ctx_.aliases().Clear(); }

  // Query history (paper Discussion: "especially if it maintained a history
  // so that common, program-specific queries could be made by simply
  // pointing"). Most recent last.
  const std::vector<std::string>& history() const { return history_; }
  void ClearHistory() { history_.clear(); }

  // Session-owned span tracer (lex/parse/analyze/eval/backend.* spans while
  // enabled; `trace on` in the REPL, -duel-trace in MI).
  obs::Tracer& tracer() { return tracer_; }

  // Stats of the most recent instrumented query, if any.
  const std::optional<obs::QueryStats>& last_stats() const { return last_stats_; }

  // The session's compiled-query cache (`plan` in the REPL, -duel-plan in
  // MI). Entries survive until evicted, invalidated, or cleared.
  PlanCache& plan_cache() { return plan_cache_; }

  // The session's execution governor. Armed per query from
  // SessionOptions::governor_limits; `governor().Cancel(reason)` from any
  // thread aborts the in-flight query at its next step checkpoint.
  ExecGovernor& governor() { return governor_; }

 private:
  void Remember(const std::string& expr);

  // The staged pipeline: plan lookup/build (lex → parse → analyze), then
  // execute. Every value is counted and handed to `on_value`; with a
  // non-null `result` it is also formatted into it (the `duel expr`
  // command), otherwise discarded (benchmarks). Collects stats/profile per
  // opts_.
  // `prepared`, when set, is the plan Prepare returned: no lookup and no
  // new symbol epoch.
  uint64_t DriveCore(const std::string& expr, QueryResult* result,
                     const ValueHook& on_value = {}, CompiledQuery* prepared = nullptr);

  // Query and Query(prepared): DriveCore into a result, errors caught.
  QueryResult Run(const std::string& expr, const ValueHook& on_value, CompiledQuery* prepared);

  // Builds a CompiledQuery for `expr` (the text-dependent half of the work).
  std::unique_ptr<CompiledQuery> BuildPlan(const std::string& expr, uint64_t fingerprint);

  // Cache lookup (with validity check) or build+insert. When the cache is
  // off, `uncached` keeps the plan alive for the caller. Fills build timings
  // and the plan-hit flag into `stats` when non-null.
  CompiledQuery* AcquirePlan(const std::string& expr, std::unique_ptr<CompiledQuery>& uncached,
                             obs::QueryStats* stats);

  // Epoch checks for a cached plan (refreshes the alias fast path on pass).
  bool PlanIsValid(CompiledQuery& plan);

  dbg::DebuggerBackend* backend_;
  SessionOptions opts_;
  EvalContext ctx_;
  PlanCache plan_cache_;
  ExecGovernor governor_;
  std::unique_ptr<CompiledQuery> prepared_;  // keeps Prepare's plan alive, cache off
  CompiledQuery* prepared_plan_ = nullptr;   // what the last Prepare returned
  bool prepared_hit_ = false;                // whether it came from the cache
  std::vector<std::string> history_;
  obs::Tracer tracer_;
  obs::NodeProfiler profiler_;
  std::optional<obs::QueryStats> last_stats_;
};

}  // namespace duel

#endif  // DUEL_DUEL_SESSION_H_
