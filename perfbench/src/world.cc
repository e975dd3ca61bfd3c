#include "world.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>

#include "src/duel/check.h"
#include "src/duel/eval.h"
#include "src/duel/lexer.h"
#include "src/duel/output.h"
#include "src/duel/parser.h"
#include "src/duel/sema.h"
#include "src/scenarios/scenarios.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  auto span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

// --- the debuggee --------------------------------------------------------------

Model GenerateModel(const WorldSpec& spec, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 17);
  Model m;
  for (const auto& [name, n] : spec.arrays) {
    std::vector<int32_t>& a = m.arrays[name];
    a.resize(n);
    for (int32_t& v : a) {
      v = static_cast<int32_t>(rng.Range(spec.lo, spec.hi));
    }
  }
  for (const auto& [name, n] : spec.zero_arrays) {
    m.arrays[name].assign(n, 0);
  }
  m.list.resize(spec.list_nodes);
  for (int32_t& v : m.list) {
    v = static_cast<int32_t>(rng.Range(spec.lo, spec.hi));
  }
  if (spec.tree_nodes > 0 && spec.balanced_tree) {
    // A complete BST over seeded, increasing keys: its shape, and so the
    // cost of walking it, does not depend on the seed.
    std::vector<int32_t> keys(spec.tree_nodes);
    int32_t k = 0;
    for (int32_t& key : keys) {
      key = k += static_cast<int32_t>(rng.Range(1, 5));
    }
    std::function<int(int, int)> build = [&](int lo, int hi) {
      if (lo > hi) {
        return -1;
      }
      int mid = lo + (hi - lo) / 2;
      int idx = static_cast<int>(m.tree.size());
      m.tree.push_back({keys[static_cast<size_t>(mid)], -1, -1});
      int left = build(lo, mid - 1);
      int right = build(mid + 1, hi);
      m.tree[static_cast<size_t>(idx)].left = left;
      m.tree[static_cast<size_t>(idx)].right = right;
      return idx;
    };
    build(0, static_cast<int>(keys.size()) - 1);
  } else if (spec.tree_nodes > 0) {
    // A binary search tree over distinct keys, inserted in random order.
    std::vector<int32_t> keys(spec.tree_nodes);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<int32_t>(i * 3 + 1);
    }
    for (size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[static_cast<size_t>(rng.Range(0, static_cast<int64_t>(i)))]);
    }
    for (int32_t k : keys) {
      int idx = static_cast<int>(m.tree.size());
      m.tree.push_back({k, -1, -1});
      if (idx == 0) {
        continue;
      }
      int cur = 0;
      while (true) {
        int& next = k < m.tree[static_cast<size_t>(cur)].key ? m.tree[static_cast<size_t>(cur)].left
                                                             : m.tree[static_cast<size_t>(cur)].right;
        if (next < 0) {
          next = idx;
          break;
        }
        cur = next;
      }
    }
  }
  m.hash.resize(1024);
  int serial = 0;
  for (std::vector<SymNode>& chain : m.hash) {
    if (rng.Range(1, 100) > static_cast<int64_t>(spec.buckets_filled_pct)) {
      continue;
    }
    auto len = static_cast<size_t>(rng.Range(1, static_cast<int64_t>(spec.max_chain)));
    for (size_t i = 0; i < len; ++i) {
      chain.push_back({"sym" + std::to_string(serial++), static_cast<int32_t>(rng.Range(0, 5))});
    }
  }
  return m;
}

std::string TreePreorder(const std::vector<TreeNode>& tree) {
  std::string out;
  std::function<void(int)> walk = [&](int i) {
    const TreeNode& n = tree[static_cast<size_t>(i)];
    out += '(';
    out += std::to_string(n.key);
    if (n.left >= 0 || n.right >= 0) {
      out += ' ';
      if (n.left >= 0) {
        walk(n.left);
      } else {
        out += "()";
      }
      out += ' ';
      if (n.right >= 0) {
        walk(n.right);
      } else {
        out += "()";
      }
    }
    out += ')';
  };
  if (!tree.empty()) {
    walk(0);
  }
  return out;
}

void BuildImage(duel::target::TargetImage& image, Model& model) {
  duel::target::InstallStandardFunctions(image);
  for (const auto& [name, values] : model.arrays) {
    model.array_addr[name] = duel::scenarios::BuildIntArray(image, name, values);
  }
  if (!model.list.empty()) {
    duel::scenarios::BuildList(image, "L", model.list);
  }
  if (!model.tree.empty()) {
    duel::scenarios::BuildTree(image, "root", TreePreorder(model.tree));
  }
  std::map<size_t, std::vector<duel::scenarios::SymEntry>> chains;
  for (size_t b = 0; b < model.hash.size(); ++b) {
    for (const SymNode& s : model.hash[b]) {
      chains[b].push_back({s.name, s.scope});
    }
  }
  duel::scenarios::BuildSymtab(image, chains, model.hash.size());
}

duel::SessionOptions BenchSessionOptions() {
  duel::SessionOptions opts;
  opts.eval.max_steps = UINT64_MAX;
  return opts;
}

SimRig::SimRig(duel::target::TargetImage& image, bool traced) : sim(image) {
  if (traced) {
    tracing = std::make_unique<TracingBackend>(sim);
  }
  duel::dbg::DebuggerBackend& backend =
      traced ? static_cast<duel::dbg::DebuggerBackend&>(*tracing) : sim;
  session = std::make_unique<duel::Session>(backend, BenchSessionOptions());
}

// --- the remote rig ----------------------------------------------------------

RemoteRig::RemoteRig(duel::target::TargetImage& image, bool traced) : sim_(image) {
  if (traced) {
    server_ = std::make_unique<TracingServer>(sim_);
  } else {
    server_ = std::make_unique<duel::rsp::RspServer>(sim_);
  }
  framed_ = std::make_unique<duel::rsp::FramedTransport>(*server_);
  if (traced) {
    traced_transport_ = std::make_unique<TracingTransport>(*framed_);
    remote_ = std::make_unique<duel::rsp::RemoteBackend>(*traced_transport_);
  } else {
    remote_ = std::make_unique<duel::rsp::RemoteBackend>(*framed_);
  }
}

// --- checks --------------------------------------------------------------------------

std::string LineValue(const std::string& line) {
  size_t at = line.rfind(" = ");
  return at == std::string::npos ? line : line.substr(at + 3);
}

bool ValuesMatch(const duel::QueryResult& r, const std::vector<std::string>& values) {
  if (!r.ok || r.truncated || r.lines.size() != values.size()) {
    return false;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (LineValue(r.lines[i]) != values[i]) {
      return false;
    }
  }
  return true;
}

bool LinesMatch(const duel::QueryResult& r, const std::vector<std::string>& lines) {
  return r.ok && !r.truncated && r.lines == lines;
}

void NoteFailure(const std::string& text, const duel::QueryResult& r) {
  static std::atomic<int> shown{0};
  if (shown.fetch_add(1, std::memory_order_relaxed) < 3) {
    std::fprintf(stderr, "wrong result for `%s`: %s%s\n", text.c_str(),
                 r.ok ? "first line: " : "error: ",
                 r.ok ? (r.lines.empty() ? "(none)" : r.lines[0].c_str()) : r.error.c_str());
  }
}

bool Verify(const Expected& e, const duel::QueryResult& r) {
  switch (e.kind) {
    case Expected::Kind::kLines:
      return LinesMatch(r, e.items);
    case Expected::Kind::kValues:
      return ValuesMatch(r, e.items);
    case Expected::Kind::kRejected:
      return CheckRejected(r);
  }
  return false;
}

bool CheckRejected(const duel::QueryResult& r) {
  if (r.ok || r.error_kind == duel::ErrorKind::kCancel || !r.lines.empty()) {
    return false;
  }
  for (const duel::Diag& d : r.diags) {
    if (d.severity == duel::Severity::kError) {
      return true;
    }
  }
  return false;
}

// --- the traced breakdown --------------------------------------------------------

FrontCost MeasureFront(duel::Session& session, duel::dbg::DebuggerBackend& backend,
                       const std::string& text) {
  FrontCost f;
  try {
    uint64_t t0 = Now();
    std::vector<duel::Token> tokens = duel::Lexer(text).LexAll();
    uint64_t t1 = Now();
    duel::Parser parser(std::move(tokens), [&backend](const std::string& name) {
      return backend.GetTargetTypedef(name) != nullptr;
    });
    duel::ParseResult parsed = parser.Parse();
    uint64_t t2 = Now();
    duel::Annotations notes = duel::Analyze(session.context(), *parsed.root, parsed.num_nodes);
    uint64_t t3 = Now();
    duel::CheckResult check = duel::CheckQuery(session.context(), *parsed.root, &notes);
    uint64_t t4 = Now();
    f = {t1 - t0, t2 - t1, t3 - t2, t4 - t3, parsed.num_nodes};
  } catch (const duel::DuelError&) {
    // Every workload text lexes and parses; a throw leaves the cost at 0.
  }
  return f;
}

duel::PlanCacheCounters Delta(const duel::PlanCacheCounters& a, const duel::PlanCacheCounters& b) {
  return {b.lookups - a.lookups, b.hits - a.hits, b.misses - a.misses,
          b.invalidations - a.invalidations, b.evictions - a.evictions};
}

duel::CacheCounters Delta(const duel::CacheCounters& a, const duel::CacheCounters& b) {
  return {b.hits - a.hits,
          b.misses - a.misses,
          b.passthroughs - a.passthroughs,
          b.bytes_from_cache - a.bytes_from_cache,
          b.bytes_fetched - a.bytes_fetched,
          b.block_fetches - a.block_fetches,
          b.invalidations - a.invalidations};
}

duel::EvalCounters Delta(const duel::EvalCounters& a, const duel::EvalCounters& b) {
  return {b.eval_steps - a.eval_steps, b.values_produced - a.values_produced,
          b.applies - a.applies, b.name_lookups - a.name_lookups,
          b.symbolic_builds - a.symbolic_builds};
}

void Accumulate(duel::PlanCacheCounters& s, const duel::PlanCacheCounters& d) {
  s.lookups += d.lookups;
  s.hits += d.hits;
  s.misses += d.misses;
  s.invalidations += d.invalidations;
  s.evictions += d.evictions;
}

void Accumulate(duel::CacheCounters& s, const duel::CacheCounters& d) {
  s.hits += d.hits;
  s.misses += d.misses;
  s.passthroughs += d.passthroughs;
  s.bytes_from_cache += d.bytes_from_cache;
  s.bytes_fetched += d.bytes_fetched;
  s.block_fetches += d.block_fetches;
  s.invalidations += d.invalidations;
}

void Accumulate(duel::EvalCounters& s, const duel::EvalCounters& d) {
  s.eval_steps += d.eval_steps;
  s.values_produced += d.values_produced;
  s.applies += d.applies;
  s.name_lookups += d.name_lookups;
  s.symbolic_builds += d.symbolic_builds;
}

namespace {

// Clears the context's annotation pointer on every exit from the pass.
class AnnotationsGuard {
 public:
  AnnotationsGuard(duel::EvalContext& ctx, const duel::Annotations* notes) : ctx_(&ctx) {
    ctx_->set_annotations(notes);
  }
  ~AnnotationsGuard() { ctx_->set_annotations(nullptr); }
  AnnotationsGuard(const AnnotationsGuard&) = delete;
  AnnotationsGuard& operator=(const AnnotationsGuard&) = delete;

 private:
  duel::EvalContext* ctx_;
};

}  // namespace

Breakdown TraceQuery(duel::Session& session, Recorder& rec, const std::string& text,
                     duel::QueryResult* out, bool execute_pass, const TracingBackend* traced,
                     const duel::rsp::Transport* wire) {
  Breakdown b;
  duel::EvalContext& ctx = session.context();
  const duel::PlanCacheCounters p0 = session.plan_cache().counters();
  const duel::CacheCounters a0 = ctx.access().counters();
  const duel::EvalCounters e0 = ctx.counters();
  const uint64_t bytes0 = traced != nullptr ? traced->bytes_read() : 0;
  const uint64_t wire0 = wire != nullptr ? wire->bytes_on_wire() : 0;

  const uint64_t q = rec.NewId();
  const uint64_t root = rec.NewId();
  const uint64_t t0 = Now();
  {
    QueryScope scope(&rec, q, root);
    *out = session.Query(text);
  }
  const uint64_t t1 = Now();
  std::vector<SpanRec> spans = rec.Take(q);
  spans.push_back({root, 0, q, t0, t1, Layer::kQuery});
  b.query = Totals(spans);
  b.e2e_ns = t1 - t0;
  b.plan = Delta(p0, session.plan_cache().counters());
  b.access = Delta(a0, ctx.access().counters());
  b.eval = Delta(e0, ctx.counters());
  b.plan_miss = b.plan.misses > 0;
  b.backend_bytes = traced != nullptr ? traced->bytes_read() - bytes0 : 0;
  b.wire_bytes = wire != nullptr ? wire->bytes_on_wire() - wire0 : 0;

  if (!execute_pass || !out->ok) {
    return b;
  }
  const duel::CompiledQuery* plan = session.Prepare(text);
  if (plan == nullptr) {
    return b;
  }
  const uint64_t q2 = rec.NewId();
  const uint64_t steps0 = ctx.counters().eval_steps;
  try {
    QueryScope scope(&rec, q2, 0);
    ctx.opts() = session.options().eval;
    ctx.BeginQueryData();
    AnnotationsGuard notes(ctx, &plan->notes);
    std::unique_ptr<duel::EvalEngine> engine = duel::MakeEngine(session.options().engine, ctx);
    ScopedSpan eval_span(Layer::kEval);
    engine->Start(*plan->parsed.root, plan->parsed.num_nodes);
    while (std::optional<duel::Value> v = engine->Next()) {
      ++b.exec_values;
      ScopedSpan output_span(Layer::kOutput);
      std::string line = duel::FormatValue(ctx, *v);
      if (!v->sym().empty()) {
        line += v->sym().Text();
      }
    }
  } catch (const duel::DuelError&) {
    // The same text just succeeded through Session::Query; a failure here
    // only shortens the pass.
  }
  b.exec = Totals(rec.Take(q2));
  b.exec_steps = ctx.counters().eval_steps - steps0;
  b.executed = true;
  return b;
}

void LayerReport::Add(const Breakdown& b, const FrontCost& front) {
  queries++;
  backend_bytes += b.backend_bytes;
  wire_bytes += b.wire_bytes;
  query_spans.Add(b.query);
  Accumulate(plan, b.plan);
  Accumulate(access, b.access);
  Accumulate(eval, b.eval);
  fronts.push_back(front);
  if (b.executed) {
    AddExecOnly(b);
    accounted_e2e_ns += b.e2e_ns;
    accounted_ns += (b.plan_miss ? front.total() : 0) + b.exec.Self(Layer::kEval) +
                    b.exec.Self(Layer::kOutput) + b.query.Self(Layer::kBackend) +
                    b.query.Self(Layer::kTransport) + b.query.Self(Layer::kServer);
  }
}

void LayerReport::AddExec(const Breakdown& b, const FrontCost& front) {
  fronts.push_back(front);
  if (b.executed) {
    AddExecOnly(b);
  }
}

void LayerReport::AddExecOnly(const Breakdown& b) {
  executed++;
  exec_values += b.exec_values;
  exec_steps += b.exec_steps;
  exec_spans.Add(b.exec);
}

// --- the report ----------------------------------------------------------------------

namespace {

void Print(const std::string& workload, const char* name, double value, const char* unit,
           const std::string& note = "") {
  std::printf("%-12s %-34s %16.4f %-6s %s\n", workload.c_str(), name, value, unit, note.c_str());
}

std::string SampleNote(const LatencySummary& s, bool tail) {
  char buf[160];
  if (tail) {
    std::snprintf(buf, sizeof buf, "p%g of %zu raw samples, %zu beyond%s", s.tail_pct, s.n,
                  s.beyond, s.tail_ok ? "" : " (fewer than 10: not reportable)");
  } else {
    std::snprintf(buf, sizeof buf, "median of %zu raw samples", s.n);
  }
  return buf;
}

double MeanUs(const std::vector<float>& v) {
  double sum = 0;
  for (float x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace

void E2e::Reserve(size_t reads, size_t writes) {
  read_us.assign(reads, 0);
  read_us.clear();
  write_us.assign(writes, 0);
  write_us.clear();
}

Segment SummarizeSegment(const std::vector<float>& reads, size_t first, double tail_pct,
                         uint64_t queries, double busy_s) {
  std::vector<double> v(reads.begin() + static_cast<std::ptrdiff_t>(first), reads.end());
  Segment s;
  s.qps = Ratio(static_cast<double>(queries), busy_s);
  s.reads = v.size();
  s.read_p50_us = Median(v);
  s.read_tail_us = Percentile(std::move(v), tail_pct);
  return s;
}

void E2e::AddSetup(double seconds, double cal_ns) {
  setup_s.push_back(seconds);
  setup_cal_ns.push_back(cal_ns);
}

RunSummary SummarizeRun(const E2e& e) {
  std::vector<double> setup;
  for (size_t i = 0; i < e.setup_s.size(); ++i) {
    setup.push_back(e.setup_s[i] * kCalRefNs / e.setup_cal_ns[i]);
  }
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<double> qps;
  for (const Segment& s : e.segments) {
    p50.push_back(s.read_p50_us * kCalRefNs / s.cal_ns);
    tail.push_back(s.read_tail_us * kCalRefNs / s.cal_ns);
    qps.push_back(s.qps * s.cal_ns / kCalRefNs);
  }
  RunSummary r;
  r.setup_s = Median(setup);
  r.read_p50_us = Median(p50);
  r.read_tail_us = Median(tail);
  r.qps = Median(qps);
  return r;
}

std::vector<Metric> ReportE2e(const std::string& workload, const E2e& e) {
  const double rss = PeakRssMiB();  // before the summaries copy the samples
  LatencySummary reads = Summarize(e.read_us, e.read_tail_pct);
  LatencySummary writes = Summarize(e.write_us, e.write_tail_pct);
  const RunSummary run = SummarizeRun(e);
  const double overall_qps = Ratio(static_cast<double>(e.completed), e.wall_s);
  double failed_frac = Ratio(static_cast<double>(e.failed), static_cast<double>(e.attempted));
  const size_t segs = e.segments.size();
  size_t min_reads = segs == 0 ? 0 : SIZE_MAX;
  std::vector<double> cal;
  for (const Segment& s : e.segments) {
    min_reads = std::min(min_reads, s.reads);
    cal.push_back(s.cal_ns);
  }

  char note[200];
  std::snprintf(note, sizeof note, "calibration median over %zu segments; scaled to %g ns",
                segs, kCalRefNs);
  Print(workload, "host calibration", Median(cal), "ns", note);
  std::snprintf(note, sizeof note, "median of %zu scaled set-ups spread over the run; raw %.4f",
                e.setup_s.size(), Median(e.setup_s));
  Print(workload, "setup_s", run.setup_s, "s", note);
  std::snprintf(note, sizeof note,
                "median over %zu segments (>= %zu reads each) of the scaled segment median",
                segs, min_reads);
  Print(workload, "read_p50_us", run.read_p50_us, "us", note);
  std::snprintf(note, sizeof note, "median over %zu segments of the scaled segment p%g", segs,
                e.read_tail_pct);
  Print(workload, "read_tail_us", run.read_tail_us, "us", note);
  std::snprintf(note, sizeof note, "median over %zu segments of the scaled segment rate", segs);
  Print(workload, "throughput_qps", run.qps, "1/s", note);
  Print(workload, "raw read p50", reads.p50, "us", SampleNote(reads, false));
  Print(workload, "raw read tail", reads.tail, "us", SampleNote(reads, true));
  if (writes.n > 0) {
    Print(workload, "raw write_p50_us", writes.p50, "us", SampleNote(writes, false));
    Print(workload, "raw write_tail_us", writes.tail, "us", SampleNote(writes, true));
  } else {
    std::printf("%-12s %-34s %16s %-6s %s\n", workload.c_str(), "raw write_p50_us", "n/a", "us",
                "no mutating queries in this workload");
    std::printf("%-12s %-34s %16s %-6s %s\n", workload.c_str(), "raw write_tail_us", "n/a", "us",
                "no mutating queries in this workload");
  }
  std::snprintf(note, sizeof note, "%" PRIu64 " queries in %.3f s of segments", e.completed,
                e.wall_s);
  Print(workload, "raw throughput_qps", overall_qps, "1/s", note);
  std::snprintf(note, sizeof note, "%" PRIu64 " of %" PRIu64 " attempted", e.failed, e.attempted);
  Print(workload, "failed_frac", failed_frac, "ratio", note);
  Print(workload, "peak_rss_mb", rss, "MiB", "ru_maxrss");

  return {{"setup_s", run.setup_s, "s"},
          {"read_p50_us", run.read_p50_us, "us"},
          {"read_tail_us", run.read_tail_us, "us"},
          {"throughput_qps", run.qps, "1/s"},
          {"peak_rss_mb", rss, "MiB"}};
}

std::vector<Metric> ReportLayers(const std::string& workload, const LayerReport& r,
                                 const E2e& untraced, const E2e& traced,
                                 const std::vector<Metric>& serve_extra) {
  const auto q = static_cast<double>(r.queries);
  const auto ex = static_cast<double>(r.executed);
  auto mean_front = [&r](auto field) {
    double sum = 0;
    for (const FrontCost& f : r.fronts) {
      sum += static_cast<double>(field(f));
    }
    return Ratio(sum, static_cast<double>(r.fronts.size()));
  };
  const duel::CacheCounters& a = r.access;
  const double access_requests = static_cast<double>(a.hits + a.misses + a.passthroughs);
  const double untraced_mean = MeanUs(untraced.read_us);
  const double traced_mean = MeanUs(traced.read_us);
  const double cpu_wall_us = untraced.wall_s * 1e6 * static_cast<double>(Nproc());

  std::vector<Metric> m = {
      {"front.lex_ns_per_query", mean_front([](const FrontCost& f) { return f.lex_ns; }), "ns"},
      {"front.parse_ns_per_query", mean_front([](const FrontCost& f) { return f.parse_ns; }), "ns"},
      {"front.sema_ns_per_query", mean_front([](const FrontCost& f) { return f.sema_ns; }), "ns"},
      {"front.check_ns_per_query", mean_front([](const FrontCost& f) { return f.check_ns; }), "ns"},
      {"front.nodes_per_query", mean_front([](const FrontCost& f) { return f.nodes; }), "count"},
      {"plan.hit_ratio", Ratio(static_cast<double>(r.plan.hits), static_cast<double>(r.plan.lookups)),
       "ratio"},
      {"plan.invalidations_per_kquery", Ratio(1000.0 * static_cast<double>(r.plan.invalidations), q),
       "count"},
      {"plan.evictions_per_kquery", Ratio(1000.0 * static_cast<double>(r.plan.evictions), q),
       "count"},
      {"eval.self_ns_per_query", Ratio(static_cast<double>(r.exec_spans.Self(Layer::kEval)), ex),
       "ns"},
      {"eval.steps_per_query", Ratio(static_cast<double>(r.exec_steps), ex), "count"},
      {"eval.ns_per_step",
       Ratio(static_cast<double>(r.exec_spans.Self(Layer::kEval)), static_cast<double>(r.exec_steps)),
       "ns"},
      {"eval.symbolic_builds_per_query", Ratio(static_cast<double>(r.eval.symbolic_builds), q),
       "count"},
      {"output.ns_per_value",
       Ratio(static_cast<double>(r.exec_spans.Self(Layer::kOutput)),
             static_cast<double>(r.exec_values)),
       "ns"},
      {"access.hit_ratio", Ratio(static_cast<double>(a.hits), access_requests), "ratio"},
      {"access.block_fetches_per_query", Ratio(static_cast<double>(a.block_fetches), q), "count"},
      {"access.bytes_fetched_per_query", Ratio(static_cast<double>(a.bytes_fetched), q), "B"},
      {"access.invalidations_per_query", Ratio(static_cast<double>(a.invalidations), q), "count"},
      {"backend.calls_per_query", Ratio(static_cast<double>(r.query_spans.Count(Layer::kBackend)), q),
       "count"},
      {"backend.self_ns_per_query", Ratio(static_cast<double>(r.query_spans.Self(Layer::kBackend)), q),
       "ns"},
      {"backend.bytes_read_per_query", Ratio(static_cast<double>(r.backend_bytes), q), "B"},
      {"rsp.round_trips_per_query",
       Ratio(static_cast<double>(r.query_spans.Count(Layer::kTransport)), q), "count"},
      {"rsp.wire_bytes_per_query", Ratio(static_cast<double>(r.wire_bytes), q), "B"},
      {"proc.cpu_us_per_query", Ratio(untraced.cpu_us, static_cast<double>(untraced.completed)),
       "us"},
      {"proc.cpu_util", Ratio(untraced.cpu_us, cpu_wall_us), "ratio"},
      {"trace.overhead_frac", Ratio(traced_mean - untraced_mean, untraced_mean), "ratio"},
      {"trace.accounted_frac",
       Ratio(static_cast<double>(r.accounted_ns), static_cast<double>(r.accounted_e2e_ns)),
       "ratio"},
  };
  for (const Metric& x : m) {
    Print(workload, x.name.c_str(), x.value, x.unit.c_str());
  }
  for (const Metric& x : serve_extra) {
    Print(workload, x.name.c_str(), x.value, x.unit.c_str());
  }
  char note[200];
  std::snprintf(note, sizeof note,
                "traced %" PRIu64 " queries (%" PRIu64 " with an execute pass); untraced mean "
                "read %.1f us, traced %.1f us",
                r.queries, r.executed, untraced_mean, traced_mean);
  std::printf("%-12s %s\n", workload.c_str(), note);
  return m;
}

}  // namespace perfbench
