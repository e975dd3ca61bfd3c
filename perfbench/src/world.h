// Shared pieces of the workloads: the seeded generator, the debuggee data
// with its reference model, the remote rig, result checks, the traced
// per-query breakdown and the report every workload prints.

#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/duel/session.h"
#include "src/rsp/remote_backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"
#include "src/target/image.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

// splitmix64: the only source of randomness; everything derives from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  // Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi);
  double Unit();  // [0, 1)

 private:
  uint64_t s_;
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // where the traced run writes its spans
};

// --- the debuggee and its reference model ----------------------------------

struct SymNode {
  std::string name;
  int32_t scope = 0;
};

struct TreeNode {
  int32_t key = 0;
  int left = -1;  // index into Model::tree, -1 = NULL
  int right = -1;
};

// Generator-side copy of everything written into the image. References are
// computed from this, never by DUEL.
struct Model {
  std::map<std::string, std::vector<int32_t>> arrays;  // int name[n]
  std::map<std::string, duel::target::Addr> array_addr;
  std::vector<int32_t> list;                            // struct List *L
  std::vector<TreeNode> tree;                           // struct node *root (tree[0])
  std::vector<std::vector<SymNode>> hash;               // struct symbol *hash[1024]
};

struct WorldSpec {
  std::vector<std::pair<std::string, size_t>> arrays;  // random int arrays
  std::vector<std::pair<std::string, size_t>> zero_arrays;
  int32_t lo = -1000;
  int32_t hi = 1000;
  size_t list_nodes = 0;
  size_t tree_nodes = 0;
  bool balanced_tree = false;  // complete BST (seed-independent shape)
  size_t buckets_filled_pct = 75;  // of the 1024 hash buckets
  size_t max_chain = 4;
};

// Fills `model` from the seed (deterministic, no image involved).
Model GenerateModel(const WorldSpec& spec, uint64_t seed);
// Lays the model out in a fresh image with the duel::scenarios helpers.
void BuildImage(duel::target::TargetImage& image, Model& model);

// The paper's preorder notation for the model's tree.
std::string TreePreorder(const std::vector<TreeNode>& tree);

// Default session options, except the eval step limit: EvalContext counts
// steps over the session's whole lifetime against EvalOptions::max_steps, so
// a long run of bounded queries would eventually fail every query. Runaway
// protection per query stays with the governor where a workload arms it.
duel::SessionOptions BenchSessionOptions();

// One in-process session over the image; with tracing, behind the backend
// decorator.
struct SimRig {
  SimRig(duel::target::TargetImage& image, bool traced);
  duel::dbg::SimBackend sim;
  std::unique_ptr<TracingBackend> tracing;
  std::unique_ptr<duel::Session> session;
};

// --- the remote rig ----------------------------------------------------------

// One session's wire path over the shared image: SimBackend -> RspServer ->
// FramedTransport -> RemoteBackend. With tracing, the server and transport
// are the tracing decorators.
class RemoteRig {
 public:
  RemoteRig(duel::target::TargetImage& image, bool traced);
  RemoteRig(const RemoteRig&) = delete;
  RemoteRig& operator=(const RemoteRig&) = delete;

  // The client end. TakeBackend hands ownership to a caller that keeps
  // the rig alive for as long as the backend (the serve factory).
  duel::rsp::RemoteBackend& backend() { return *remote_; }
  std::unique_ptr<duel::rsp::RemoteBackend> TakeBackend() { return std::move(remote_); }
  const duel::rsp::Transport& wire() const { return *framed_; }

 private:
  duel::dbg::SimBackend sim_;
  std::unique_ptr<duel::rsp::RspServer> server_;
  std::unique_ptr<duel::rsp::FramedTransport> framed_;
  std::unique_ptr<TracingTransport> traced_transport_;
  std::unique_ptr<duel::rsp::RemoteBackend> remote_;
};

// --- checks ----------------------------------------------------------------------

// The value part of an output line: the text after the last " = ", or the
// whole line when it has none (reductions print a bare value).
std::string LineValue(const std::string& line);

// ok, and exactly one line per expected value, each with that value.
bool ValuesMatch(const duel::QueryResult& r, const std::vector<std::string>& values);
// ok, and exactly these lines.
bool LinesMatch(const duel::QueryResult& r, const std::vector<std::string>& lines);
// Rejected by the check stage (an error diagnostic, nothing evaluated).
bool CheckRejected(const duel::QueryResult& r);

// A query's reference outcome, computed from the model.
struct Expected {
  enum class Kind { kLines, kValues, kRejected };
  Kind kind = Kind::kValues;
  std::vector<std::string> items;  // lines or values; unused for kRejected
};
// The one check every workload applies; false counts toward failed_frac.
bool Verify(const Expected& e, const duel::QueryResult& r);
// Prints the first few wrong results to stderr.
void NoteFailure(const std::string& text, const duel::QueryResult& r);

// Counter arithmetic: after - before, and sum += delta.
duel::PlanCacheCounters Delta(const duel::PlanCacheCounters& before,
                              const duel::PlanCacheCounters& after);
duel::CacheCounters Delta(const duel::CacheCounters& before, const duel::CacheCounters& after);
duel::EvalCounters Delta(const duel::EvalCounters& before, const duel::EvalCounters& after);
void Accumulate(duel::PlanCacheCounters& sum, const duel::PlanCacheCounters& delta);
void Accumulate(duel::CacheCounters& sum, const duel::CacheCounters& delta);
void Accumulate(duel::EvalCounters& sum, const duel::EvalCounters& delta);

// --- the traced single-session breakdown -------------------------------------

// Front-stage cost of one query text, from timed calls to Lexer::LexAll,
// Parser::Parse, Analyze and CheckQuery on the session's context.
struct FrontCost {
  uint64_t lex_ns = 0;
  uint64_t parse_ns = 0;
  uint64_t sema_ns = 0;
  uint64_t check_ns = 0;
  int nodes = 0;
  uint64_t total() const { return lex_ns + parse_ns + sema_ns + check_ns; }
};
FrontCost MeasureFront(duel::Session& session, duel::dbg::DebuggerBackend& backend,
                       const std::string& text);

// Per-layer attribution of one traced query.
struct Breakdown {
  uint64_t e2e_ns = 0;    // the traced Session::Query call
  bool plan_miss = false;
  LayerTotals query;      // spans inside Session::Query (backend, rsp)
  uint64_t backend_bytes = 0;  // bytes the backend returned during the call
  uint64_t wire_bytes = 0;     // rsp bytes on the wire during the call
  duel::PlanCacheCounters plan;  // deltas over the Session::Query call
  duel::CacheCounters access;
  duel::EvalCounters eval;
  bool executed = false;  // the bench-driven execute pass ran
  LayerTotals exec;       // spans of the execute pass (eval, output, backend)
  uint64_t exec_values = 0;
  uint64_t exec_steps = 0;
};

// Runs `text` once through Session::Query inside a kQuery span (its result
// lands in `out`), then, when `execute_pass` is set and the query succeeded,
// drives the warm plan again through EvalEngine::Start/Next with a kOutput
// span around each FormatValue. The execute pass re-reads the target, so
// callers pass it only for read-only queries. `traced` and `wire` (either
// may be null) supply the byte counts.
Breakdown TraceQuery(duel::Session& session, Recorder& rec, const std::string& text,
                     duel::QueryResult* out, bool execute_pass, const TracingBackend* traced,
                     const duel::rsp::Transport* wire);

// Sums traced queries into the per-layer report.
struct LayerReport {
  // A traced single-session query; `front` is its text's front cost.
  void Add(const Breakdown& b, const FrontCost& front);
  // Only the execute pass and front cost (the serve workload's replay).
  void AddExec(const Breakdown& b, const FrontCost& front);

  uint64_t queries = 0;
  uint64_t backend_bytes = 0;
  uint64_t wire_bytes = 0;
  LayerTotals query_spans;
  duel::PlanCacheCounters plan;
  duel::CacheCounters access;
  duel::EvalCounters eval;

  uint64_t executed = 0;
  uint64_t exec_values = 0;
  uint64_t exec_steps = 0;
  LayerTotals exec_spans;
  std::vector<FrontCost> fronts;  // one per traced query (or replayed text)

  // Accounting: the traced e2e time of the queries that had an execute
  // pass, and the layer self times attributed to those same queries.
  uint64_t accounted_e2e_ns = 0;
  uint64_t accounted_ns = 0;

 private:
  void AddExecOnly(const Breakdown& b);
};

// --- the report ----------------------------------------------------------------------

// One stretch of a timed phase, summarised on its own: its throughput and the
// median and tail of its raw read latencies, with the host's speed around it.
struct Segment {
  double qps = 0;
  double read_p50_us = 0;
  double read_tail_us = 0;
  size_t reads = 0;
  double cal_ns = 0;  // mean CalibrationNs just before and just after it
};
// `reads` are the segment's raw read latencies; `queries` completed in
// `busy_s` seconds.
Segment SummarizeSegment(const std::vector<float>& reads, size_t first, double tail_pct,
                         uint64_t queries, double busy_s);

// The host is shared: other tenants slow it by up to 1.8x for minutes at a
// time, far more than a run can average out. Every reported timing is
// therefore scaled to a host on which CalibrationNs reads kCalRefNs: a time
// measured while the calibration took c ns is reported as time * kCalRefNs /
// c, a throughput as qps * c / kCalRefNs. The calibration is the benchmark's
// own code, so a change to DUEL moves the scaled numbers as it moves the raw
// ones. The raw figures are printed beside them.
constexpr double kCalRefNs = 1e6;

// Collected by every workload's timed (untraced) phase.
struct E2e {
  // Pre-touches sample storage, so the peak RSS does not depend on how many
  // queries a run completes.
  void Reserve(size_t reads, size_t writes);
  // Records one timed set-up and the host's speed (CalibrationNs) beside it.
  void AddSetup(double seconds, double cal_ns);

  std::vector<double> setup_s;  // every timed set-up of the run
  std::vector<double> setup_cal_ns;
  std::vector<float> read_us;   // raw per-query latencies
  std::vector<float> write_us;
  std::vector<Segment> segments;
  double read_tail_pct = 99;
  double write_tail_pct = 95;
  uint64_t completed = 0;
  double wall_s = 0;       // wall time of the segments
  double cpu_us = 0;       // process CPU during the segments
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Seconds `f` takes.
template <typename F>
double Seconds(F&& f) {
  const uint64_t t0 = Now();
  f();
  return static_cast<double>(Now() - t0) / 1e9;
}

// The timed phase: runs `segment()` (one stretch, which appends its samples
// to `e` and returns its summary) and after each one throwaway set-up,
// `setup()` returning its seconds, until `seconds` have passed, calibrating
// the host between them. Spreading the set-ups over the run gives them the
// same host as the segments rather than the host of the run's first second.
template <typename S, typename U>
void Alternate(double seconds, E2e& e, S&& segment, U&& setup) {
  const uint64_t start = Now();
  const auto budget = static_cast<uint64_t>(seconds * 1e9);
  double cal_before = CalibrationNs();
  while (Now() - start < budget) {
    const double cpu0 = CpuMicros();
    e.wall_s += Seconds([&] { e.segments.push_back(segment()); });
    e.cpu_us += CpuMicros() - cpu0;
    const double cal_after = CalibrationNs();
    e.segments.back().cal_ns = (cal_before + cal_after) / 2;
    cal_before = cal_after;
    if (Now() - start < budget) {
      e.AddSetup(setup(), cal_after);
    }
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// The reported timings of a timed phase, each scaled by the calibration
// beside it (kCalRefNs): the median set-up, and the medians over the
// segments of their read p50, read tail and throughput.
struct RunSummary {
  double setup_s = 0;
  double read_p50_us = 0;
  double read_tail_us = 0;
  double qps = 0;
};
RunSummary SummarizeRun(const E2e& e);

// Prints the eight end-to-end metrics (human lines) and returns the ones the
// JSON result carries.
std::vector<Metric> ReportE2e(const std::string& workload, const E2e& e);

// Prints and returns the per-layer metrics of a traced run. `untraced` is the
// same workload's untraced phase of this run, for the tracing overhead.
std::vector<Metric> ReportLayers(const std::string& workload, const LayerReport& r,
                                 const E2e& untraced, const E2e& traced,
                                 const std::vector<Metric>& serve_extra);

// The workloads (scan.cc, interactive.cc, serve_mixed.cc).
Outcome RunScan(const Config& cfg);
Outcome RunInteractive(const Config& cfg);
Outcome RunServeMixed(const Config& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
