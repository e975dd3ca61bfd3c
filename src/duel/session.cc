#include "src/duel/session.h"

#include <array>
#include <cassert>

#include "src/duel/check.h"
#include "src/duel/lexer.h"
#include "src/duel/output.h"

namespace duel {

namespace {

// Pairs profiler slots with the parsed tree, preorder, clipping each node's
// source excerpt for the heat view.
void FillProfile(const Node& n, int depth, const std::string& expr,
                 const std::vector<obs::NodeProfiler::Slot>& slots,
                 std::vector<obs::QueryStats::NodeProfile>* out) {
  obs::QueryStats::NodeProfile p;
  p.node_id = n.id;
  p.depth = depth;
  p.op = OpName(n.op);
  if (!n.range.empty() && n.range.end <= expr.size()) {
    p.excerpt = expr.substr(n.range.begin, n.range.end - n.range.begin);
    if (p.excerpt.size() > 32) {
      p.excerpt = p.excerpt.substr(0, 29) + "...";
    }
  }
  if (n.id >= 0 && static_cast<size_t>(n.id) < slots.size()) {
    p.steps = slots[static_cast<size_t>(n.id)].steps;
    p.time_ns = slots[static_cast<size_t>(n.id)].time_ns;
  }
  out->push_back(std::move(p));
  for (const NodePtr& k : n.kids) {
    FillProfile(*k, depth + 1, expr, slots, out);
  }
}

// The options that change what a compiled artifact contains: folded values
// capture their symbolic text (sym_mode), and the unbounded-walk warning
// depends on cycle_detect. Everything else affects execution, not
// compilation.
uint64_t PlanFingerprint(const EvalOptions& o) {
  return (static_cast<uint64_t>(o.sym_mode) << 1) | (o.cycle_detect ? 1u : 0u);
}

// The gate between the analyze and execute stages: errors reject the query,
// and under WarnMode::kError so does any warning. Shared by Query and Check
// so both give one verdict for the same text.
std::optional<DuelError> Rejection(const CheckResult& check, WarnMode warn) {
  if (check.HasErrors()) {
    return check.FirstError();
  }
  if (warn == WarnMode::kError && !check.diags.empty()) {
    const Diag& d = check.diags.front();
    return DuelError(ErrorKind::kType, d.message + " [warnings are errors]", d.span);
  }
  return std::nullopt;
}

// RAII: arms the session governor for one execute stage (when any limit is
// set) and disarms on every exit path, so a cancel that lands between
// queries cannot leak into the next one.
class ScopedGovernor {
 public:
  ScopedGovernor(ExecGovernor& g, const GovernorLimits& limits)
      : g_(limits.any() ? &g : nullptr) {
    if (g_ != nullptr) {
      g_->Arm(limits);
    }
  }
  ~ScopedGovernor() {
    if (g_ != nullptr) {
      g_->Disarm();
    }
  }
  ScopedGovernor(const ScopedGovernor&) = delete;
  ScopedGovernor& operator=(const ScopedGovernor&) = delete;

 private:
  ExecGovernor* g_;
};

// RAII: the context's annotation pointer must never outlive the execute
// stage that attached it (the plan may be evicted between queries).
class ScopedAnnotations {
 public:
  ScopedAnnotations(EvalContext& ctx, const Annotations* notes) : ctx_(&ctx) {
    ctx_->set_annotations(notes);
  }
  ~ScopedAnnotations() { ctx_->set_annotations(nullptr); }
  ScopedAnnotations(const ScopedAnnotations&) = delete;
  ScopedAnnotations& operator=(const ScopedAnnotations&) = delete;

 private:
  EvalContext* ctx_;
};

void Fail(QueryResult& result, const DuelError& e) {
  result.ok = false;
  result.error = FormatError(e);
  result.error_span = e.range();
  result.error_kind = e.kind();
}

}  // namespace

std::string QueryResult::Text() const {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  if (!ok) {
    out += error;
    out += '\n';
  }
  return out;
}

std::string_view QueryResult::SymText(size_t i) const {
  return std::string_view(lines[i]).substr(0, spans[i]);
}

std::string_view QueryResult::ValueText(size_t i) const {
  std::string_view line = lines[i];
  return spans[i] == 0 || spans[i] == line.size() ? line : line.substr(spans[i] + 3);
}

Session::Session(dbg::DebuggerBackend& backend, SessionOptions opts)
    : backend_(&backend), opts_(opts), ctx_(backend, opts.eval) {
  // The governor stays attached for the session's lifetime; it only costs
  // anything while armed (DriveCore arms it per query when limits are set).
  ctx_.set_governor(&governor_);
  ctx_.access().set_governor(&governor_);
}

void Session::Remember(const std::string& expr) {
  if (opts_.max_history == 0) {
    return;
  }
  if (!history_.empty() && history_.back() == expr) {
    return;  // collapse immediate repeats
  }
  history_.push_back(expr);
  if (history_.size() > opts_.max_history) {
    history_.erase(history_.begin());
  }
}

std::unique_ptr<CompiledQuery> Session::BuildPlan(const std::string& expr, uint64_t fingerprint) {
  auto plan = std::make_unique<CompiledQuery>();
  plan->text = expr;
  plan->fingerprint = fingerprint;

  const uint64_t t_lex = obs::NowNs();
  {
    obs::Span span(&tracer_, "lex");
    plan->tokens = Lexer(plan->text).LexAll();
  }
  const uint64_t t_parse = obs::NowNs();
  plan->lex_ns = t_parse - t_lex;
  {
    obs::Span span(&tracer_, "parse");
    Parser parser(plan->tokens, [this](const std::string& name) {
      return backend_->GetTargetTypedef(name) != nullptr;
    });
    plan->parsed = parser.Parse();
  }
  const uint64_t t_analyze = obs::NowNs();
  plan->parse_ns = t_analyze - t_parse;
  {
    // The verdict is part of the compiled artifact: warm hits replay it for
    // free, and the gate in DriveCore / Check decides what it rejects.
    obs::Span span(&tracer_, "analyze");
    plan->notes = Analyze(ctx_, *plan->parsed.root, plan->parsed.num_nodes);
  }
  plan->analyze_ns = obs::NowNs() - t_analyze;

  plan->symbol_epoch = backend_->SymbolEpoch();
  plan->alias_version = ctx_.aliases().version();
  return plan;
}

bool Session::PlanIsValid(CompiledQuery& plan) {
  if (plan.symbol_epoch != backend_->SymbolEpoch()) {
    return false;  // frame change / symbol-table mutation: bindings stale
  }
  if (plan.alias_version != ctx_.aliases().version()) {
    // The analyze stage resolved these names (bound ones among them) through
    // the alias table or the target symbols. An alias appearing over one
    // shadows it; one the walk read may have been rebound or removed since
    // (the version moved, and we cannot tell which alias did) — both void
    // the plan. A plan that consulted no name survives alias churn.
    for (const auto& [name, was_aliased] : plan.notes.check.names) {
      if (was_aliased || ctx_.aliases().Has(name)) {
        return false;
      }
    }
    plan.alias_version = ctx_.aliases().version();  // fast path for next time
  }
  return true;
}

CompiledQuery* Session::AcquirePlan(const std::string& expr,
                                    std::unique_ptr<CompiledQuery>& uncached,
                                    obs::QueryStats* stats) {
  const uint64_t fingerprint = PlanFingerprint(opts_.eval);
  const bool cache_on = opts_.plan_cache && plan_cache_.capacity() > 0;
  CompiledQuery* plan = nullptr;
  if (cache_on) {
    PlanCacheCounters& pc = plan_cache_.counters();
    pc.lookups++;
    plan = plan_cache_.Find(expr, fingerprint);
    if (plan != nullptr && !PlanIsValid(*plan)) {
      plan_cache_.Erase(expr, fingerprint);
      pc.invalidations++;
      plan = nullptr;
    }
    if (plan != nullptr) {
      pc.hits++;
      plan->hits++;
      if (stats != nullptr) {
        stats->plan_hit = true;
      }
    } else {
      pc.misses++;
    }
  }
  if (plan == nullptr) {
    std::unique_ptr<CompiledQuery> built = BuildPlan(expr, fingerprint);
    if (stats != nullptr) {
      stats->lex_ns = built->lex_ns;
      stats->parse_ns = built->parse_ns;
      stats->analyze_ns = built->analyze_ns;
    }
    if (cache_on) {
      plan = plan_cache_.Insert(std::move(built));
    } else {
      uncached = std::move(built);
      plan = uncached.get();
    }
  }
  return plan;
}

uint64_t Session::DriveCore(const std::string& expr, QueryResult* result,
                           const ValueHook& on_value, CompiledQuery* prepared) {
  const bool collect = opts_.collect_stats || opts_.profile;
  obs::BackendInstr& instr = backend_->instr();
  instr.set_tracer(&tracer_);
  instr.set_enabled(collect || tracer_.enabled());
  ctx_.set_profiler(nullptr);
  // Fresh symbol/type/frame view for the front half (parse probes typedefs,
  // the analyze stage resolves names). Purely a client-side cache drop — the
  // full data-path epoch (ctx_.BeginQuery) starts only after the check gate
  // passes, so rejected queries never touch target data. A prepared plan
  // runs in the epoch its Prepare opened.
  if (prepared == nullptr) {
    backend_->BeginQueryEpoch();
  }

  obs::QueryStats stats;
  std::array<uint64_t, obs::kNumNarrowCalls> calls_before{};
  EvalCounters eval_before;
  CacheCounters cache_before;
  PlanCacheCounters plan_before;
  if (collect) {
    instr.ResetHistograms();
    for (size_t i = 0; i < obs::kNumNarrowCalls; ++i) {
      calls_before[i] = instr.calls(static_cast<obs::NarrowCall>(i));
    }
    eval_before = ctx_.counters();
    cache_before = ctx_.access().counters();
    plan_before = plan_cache_.counters();
    stats.query = expr;
  }

  const uint64_t t_query = obs::NowNs();
  obs::Span query_span(&tracer_, "query", expr);

  // --- plan: reuse a cached CompiledQuery, or build one --------------------
  const bool cache_on = opts_.plan_cache && plan_cache_.capacity() > 0;
  std::unique_ptr<CompiledQuery> uncached;  // owns the plan when cache is off
  CompiledQuery* plan = prepared;
  if (plan == nullptr) {
    plan = AcquirePlan(expr, uncached, &stats);
  } else if (prepared_hit_) {
    stats.plan_hit = true;
  } else {
    stats.lex_ns = plan->lex_ns;
    stats.parse_ns = plan->parse_ns;
    stats.analyze_ns = plan->analyze_ns;
  }

  // --- check gate: reject doomed queries before touching the target --------
  const CheckResult& check = plan->notes.check;
  stats.diags_errors = check.num_errors();
  stats.diags_warnings = check.num_warnings();
  if (result != nullptr) {
    for (const Diag& d : check.diags) {
      if (d.severity == Severity::kError || opts_.warn != WarnMode::kOff) {
        result->diags.push_back(d);
      }
    }
  }
  if (std::optional<DuelError> e = Rejection(check, opts_.warn)) {
    throw *e;
  }

  // Fresh data-cache epoch (data half only: the backend's client-side symbol
  // caches were already refreshed at the top of this query, and the checker's
  // lookups stay memoized into evaluation).
  ctx_.BeginQueryData();

  // --- execute: the engine consumes the annotated AST ----------------------
  // The governor covers exactly the execute stage: compile-time work is
  // bounded by the text, and a budget trip mid-run must not leave the
  // governor armed for the next query.
  ScopedGovernor scoped_governor(governor_, opts_.governor_limits);
  const Node& root = *plan->parsed.root;
  ScopedAnnotations scoped_notes(ctx_, &plan->notes);
  EvalEngine engine(ctx_);
  if (opts_.profile) {
    profiler_.Begin(plan->parsed.num_nodes);
    ctx_.set_profiler(&profiler_);
  }

  // A root filter scan prints its passes itself, unless something must see
  // each value: a hook, or the profiler (which keeps the scan off anyway).
  EvalEngine::LineSink sink;
  if (result != nullptr && !on_value && !opts_.profile) {
    sink = {&result->lines, &result->spans, opts_.max_output_values};
    engine.PrintInto(&sink);
  }

  const uint64_t t_eval = obs::NowNs();
  uint64_t count = 0;
  {
    obs::Span span(&tracer_, "eval");
    engine.Start(root, plan->parsed.num_nodes);
    std::string line;  // reused: each value's line is copied out of it
    while (auto v = engine.Next()) {
      if (result != nullptr && result->spans.size() >= opts_.max_output_values) {
        // A value past the limit exists: the result is cut short.
        result->truncated = true;
        result->lines.push_back("...");
        break;
      }
      ++count;
      ctx_.counters().values_produced++;
      if (on_value) {
        on_value(*v);
      }
      if (result != nullptr) {
        // Formatting may fault (it reads an lvalue's bytes): the line is
        // stored only once complete, so a fault leaves neither a span nor a
        // line.
        line.clear();
        v->sym().AppendTo(line);
        const size_t sym_len = OpenValue(line);
        AppendValue(ctx_, *v, line);
        PushLine(result->lines, result->spans, line, sym_len);
      }
    }
  }
  count += sink.written;
  stats.eval_ns = obs::NowNs() - t_eval;
  stats.total_ns = obs::NowNs() - t_query;
  if (opts_.profile) {
    profiler_.End();
    ctx_.set_profiler(nullptr);
  }

  if (cache_on) {
    // The run completed: a query's own alias definitions are never bound,
    // so they cannot invalidate its own plan.
    plan->alias_version = ctx_.aliases().version();
  }

  if (collect) {
    stats.values = count;
    stats.eval = obs::CountersDelta(eval_before, ctx_.counters());
    stats.cache = obs::CountersDelta(cache_before, ctx_.access().counters());
    stats.plan = obs::CountersDelta(plan_before, plan_cache_.counters());
    for (size_t i = 0; i < obs::kNumNarrowCalls; ++i) {
      stats.call_counts[i] = instr.calls(static_cast<obs::NarrowCall>(i)) - calls_before[i];
      stats.call_ns[i] = instr.latency_ns(static_cast<obs::NarrowCall>(i));
    }
    stats.read_bytes = instr.read_bytes();
    stats.write_bytes = instr.write_bytes();
    if (opts_.profile) {
      stats.profiled_steps = profiler_.total_steps();
      FillProfile(root, 0, expr, profiler_.slots(), &stats.nodes);
      const std::vector<obs::NodeProfiler::Slot>& slots = profiler_.slots();
      if (!slots.empty() && slots.back().steps > 0) {
        obs::QueryStats::NodeProfile p;
        p.node_id = -1;
        p.op = "(unattributed)";
        p.steps = slots.back().steps;
        p.time_ns = slots.back().time_ns;
        stats.nodes.push_back(std::move(p));
      }
    }
    last_stats_ = stats;
    if (result != nullptr) {
      result->stats = std::move(stats);
    }
  }
  return count;
}

QueryResult Session::Query(const std::string& expr, const ValueHook& on_value) {
  return Run(expr, on_value, nullptr);
}

QueryResult Session::Query(const CompiledQuery& prepared, const ValueHook& on_value) {
  assert(&prepared == prepared_plan_);
  return Run(prepared.text, on_value, prepared_plan_);
}

QueryResult Session::Run(const std::string& expr, const ValueHook& on_value,
                         CompiledQuery* prepared) {
  QueryResult result;
  Remember(expr);
  ctx_.opts() = opts_.eval;  // pick up option changes between queries
  try {
    DriveCore(expr, &result, on_value, prepared);
  } catch (const DuelError& e) {
    Fail(result, e);
    // Static and runtime errors alike point back into the query text: the
    // message line stays intact (and grep-stable), the caret lines follow.
    if (std::string caret = CaretBlock(expr, e.range()); !caret.empty()) {
      result.error += '\n' + caret;
    }
  }
  return result;
}

QueryResult Session::Check(const std::string& expr) {
  QueryResult result;
  ctx_.opts() = opts_.eval;
  backend_->BeginQueryEpoch();  // fresh symbol view, no data-path epoch
  try {
    std::unique_ptr<CompiledQuery> uncached;
    CompiledQuery* plan = AcquirePlan(expr, uncached, nullptr);
    result.diags = plan->notes.check.diags;
    if (std::optional<DuelError> e = Rejection(plan->notes.check, opts_.warn)) {
      Fail(result, *e);
    }
  } catch (const DuelError& e) {  // lex / parse failures arrive as throws
    Fail(result, e);
    result.diags.push_back({Severity::kError,
                            e.kind() == ErrorKind::kLex ? "lex" : "syntax",
                            e.range(), e.what(), ""});
  }
  return result;
}

const CompiledQuery* Session::Prepare(const std::string& expr) {
  ctx_.opts() = opts_.eval;
  backend_->BeginQueryEpoch();  // fresh symbol view, no data-path epoch
  try {
    std::unique_ptr<CompiledQuery> uncached;
    const uint64_t hits = plan_cache_.counters().hits;
    CompiledQuery* plan = AcquirePlan(expr, uncached, nullptr);
    if (uncached != nullptr) {
      prepared_ = std::move(uncached);  // cache off: keep the plan alive
    }
    prepared_plan_ = plan;
    prepared_hit_ = plan_cache_.counters().hits != hits;
    return plan;
  } catch (const DuelError&) {
    return nullptr;  // lex/parse failure; Query on the same text reproduces it
  }
}

uint64_t Session::Drive(const std::string& expr) {
  ctx_.opts() = opts_.eval;
  return DriveCore(expr, nullptr);
}

}  // namespace duel
