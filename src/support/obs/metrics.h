// Metrics layer: histograms, per-narrow-call backend instrumentation, and
// the per-query stats snapshot that grows the counters of counters.h into a
// full observability record.
//
// The paper's narrow DUEL↔debugger interface is the natural metering
// boundary — every target byte, symbol lookup, and target call crosses it.
// BackendInstr sits inside DebuggerBackend and, when enabled, records a
// latency histogram per narrow-call kind plus read/write size histograms.
// Session::Query assembles a QueryStats from the counter deltas, the phase
// timings, and (optionally) the per-AST-node profile.

#ifndef DUEL_SUPPORT_OBS_METRICS_H_
#define DUEL_SUPPORT_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/counters.h"
#include "src/support/obs/trace.h"

namespace duel::obs {

// Power-of-two bucketed histogram (bucket i counts values in [2^i, 2^(i+1)),
// bucket 0 counts zeros and ones). Good enough for latency/bytes shapes at
// a fixed tiny footprint.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(uint64_t v);
  void Reset() { *this = Histogram(); }
  void MergeFrom(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  uint64_t mean() const { return count_ == 0 ? 0 : sum_ / count_; }
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  // Approximate percentile (upper bound of the bucket holding rank p).
  uint64_t Percentile(double p) const;

  // "count=12 sum=4096 min=16 mean=341 p50<=512 p99<=1024 max=900"
  std::string Summary() const;

  // {"count":12,"sum":4096,"min":16,"mean":341,"p50":512,"p99":1024,"max":900}
  std::string ToJson() const;

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  std::array<uint64_t, kBuckets> buckets_{};
};

// The narrow-interface call kinds (the paper's 7 functions; the symbol/type
// lookups and the frame miscellany are each metered as one kind).
enum class NarrowCall {
  kGetBytes = 0,
  kPutBytes,
  kValidBytes,
  kAllocSpace,
  kCallFunc,
  kSymbolLookup,  // GetTargetVariable / GetTargetFunction / GetTargetEnumerator
  kTypeLookup,    // GetTargetTypedef / Struct / Union / Enum
  kFrames,        // NumFrames / FrameFunction / FrameLocals
  kReadVector,    // ReadTargetRanges (remote: one qDuelReadV wire packet)
  kNumKinds,
};

constexpr size_t kNumNarrowCalls = static_cast<size_t>(NarrowCall::kNumKinds);

const char* NarrowCallName(NarrowCall c);

// Per-backend instrumentation: call counts always; latency and byte-size
// histograms (and trace spans) only while enabled. Lives in DebuggerBackend;
// it is the one meter of the narrow interface.
class BackendInstr {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Tracer to emit one span per narrow call into (may be null / disabled).
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }

  void ResetHistograms();

  void RecordCall(NarrowCall c, uint64_t dur_ns) {
    calls_[static_cast<size_t>(c)]++;
    latency_ns_[static_cast<size_t>(c)].Record(dur_ns);
  }
  void CountCall(NarrowCall c) { calls_[static_cast<size_t>(c)]++; }
  void RecordReadBytes(uint64_t n) { read_bytes_.Record(n); }
  void RecordWriteBytes(uint64_t n) { write_bytes_.Record(n); }

  uint64_t calls(NarrowCall c) const { return calls_[static_cast<size_t>(c)]; }
  const Histogram& latency_ns(NarrowCall c) const {
    return latency_ns_[static_cast<size_t>(c)];
  }
  const Histogram& read_bytes() const { return read_bytes_; }
  const Histogram& write_bytes() const { return write_bytes_; }

 private:
  bool enabled_ = false;
  Tracer* tracer_ = nullptr;
  std::array<uint64_t, kNumNarrowCalls> calls_{};
  std::array<Histogram, kNumNarrowCalls> latency_ns_{};
  Histogram read_bytes_;
  Histogram write_bytes_;
};

// RAII meter for one narrow-interface call: bumps the call count, and — only
// while the owning BackendInstr is enabled — times the call and emits a
// trace span. Construction on the disabled path is a branch and an add.
class CallTimer {
 public:
  CallTimer(BackendInstr& instr, NarrowCall call)
      : instr_(&instr), call_(call), start_ns_(instr.enabled() ? NowNs() : 0) {
    if (start_ns_ == 0) {
      instr_->CountCall(call_);
      instr_ = nullptr;
    }
  }
  ~CallTimer() {
    if (instr_ != nullptr) {
      uint64_t dur = NowNs() - start_ns_;
      instr_->RecordCall(call_, dur);
      if (Tracer* t = instr_->tracer(); t != nullptr && t->enabled()) {
        uint64_t token = t->BeginSpan(std::string("backend.") + NarrowCallName(call_));
        t->EndSpan(token);
      }
    }
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  BackendInstr* instr_;
  NarrowCall call_;
  uint64_t start_ns_;
};

// Everything observed about one query: phase timings, counter deltas,
// narrow-call metering, and (optionally) the per-node profile.
struct QueryStats {
  std::string query;

  // Per-stage timings of the staged pipeline (lex → parse → analyze →
  // execute). On a plan-cache hit the three build stages report 0 — they
  // did not run; the plan was replayed.
  uint64_t lex_ns = 0;
  uint64_t parse_ns = 0;
  uint64_t analyze_ns = 0;
  uint64_t eval_ns = 0;
  uint64_t total_ns = 0;

  // Check-stage diagnostics for this query (counts come from the plan's
  // cached verdict, so they are reported on warm hits too).
  uint64_t diags_errors = 0;
  uint64_t diags_warnings = 0;

  // Plan-cache outcome for this query: whether a cached CompiledQuery was
  // reused, plus the session cache's counter delta.
  bool plan_hit = false;
  PlanCacheCounters plan;

  uint64_t values = 0;

  EvalCounters eval;    // delta for this query
  CacheCounters cache;  // access-layer delta for this query

  // Narrow-call metering for this query. Collecting stats enables the
  // histograms, so read_bytes.sum()/write_bytes.sum() are the byte totals.
  std::array<uint64_t, kNumNarrowCalls> call_counts{};
  std::array<Histogram, kNumNarrowCalls> call_ns{};  // filled when instr enabled
  Histogram read_bytes;
  Histogram write_bytes;

  // Per-AST-node profile (filled when profiling was on). `excerpt` is the
  // node's slice of the query text.
  struct NodeProfile {
    int node_id = -1;
    int depth = 0;
    std::string op;
    std::string excerpt;
    uint64_t steps = 0;
    uint64_t time_ns = 0;
  };
  std::vector<NodeProfile> nodes;
  uint64_t profiled_steps = 0;  // sum over nodes (+ engine overhead bucket)

  // Human-readable stats block (the REPL's `stats` output).
  std::vector<std::string> Render() const;

  // Annotated-expression heat view (the REPL's `profile` output).
  std::vector<std::string> RenderProfile() const;

  // Single-line JSON object (machine-readable; benches emit this).
  std::string ToJson() const;
};

// Captures the counter deltas `after - before` field by field.
EvalCounters CountersDelta(const EvalCounters& before, const EvalCounters& after);
CacheCounters CountersDelta(const CacheCounters& before, const CacheCounters& after);
PlanCacheCounters CountersDelta(const PlanCacheCounters& before, const PlanCacheCounters& after);

}  // namespace duel::obs

#endif  // DUEL_SUPPORT_OBS_METRICS_H_
