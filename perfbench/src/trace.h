// The traced run: in-memory spans recorded from the benchmark's own files.
//
// A span has a layer name, start, end, parent span and the id of the query
// it belongs to. Spans come from three places:
//   * around the calls the benchmark makes into each layer's public
//     functions (Session::Query, EvalEngine::Start/Next, FormatValue);
//   * decorators at the existing virtual seams: TracingBackend
//     (dbg::DebuggerBackend), TracingTransport (rsp::Transport) and
//     TracingServer (rsp::RspServer::Handle);
//   * the serve workload's client threads (submit to completion).
// Untraced runs construct none of these, so they carry no decorators.
//
// Spans are grouped by query id while the query runs; when it completes the
// benchmark takes its spans, computes self times (stats.h SelfTimes) and
// sums them per layer. The first kKeptSpans spans are also kept verbatim and
// written out as JSON lines when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/dbg/backend.h"
#include "src/rsp/server.h"
#include "src/rsp/transport.h"

namespace perfbench {

enum class Layer : uint8_t {
  kQuery,      // Session::Query, or QueryService submit -> completion
  kEval,       // EvalEngine::Start/Next (bench-driven execute pass)
  kOutput,     // FormatValue + symbolic text of one value
  kBackend,    // one DebuggerBackend call
  kTransport,  // one rsp::Transport::RoundTrip (framing codec)
  kServer,     // one rsp::RspServer::Handle
  kCount,
};
const char* LayerName(Layer l);

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  Layer layer = Layer::kQuery;
};

// Per-layer sums over the spans of one or more queries.
struct LayerTotals {
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> count{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> dur_ns{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> self_ns{};

  uint64_t Count(Layer l) const { return count[static_cast<size_t>(l)]; }
  uint64_t Dur(Layer l) const { return dur_ns[static_cast<size_t>(l)]; }
  uint64_t Self(Layer l) const { return self_ns[static_cast<size_t>(l)]; }
  void Add(const LayerTotals& o);
};
LayerTotals Totals(const std::vector<SpanRec>& spans);

class Recorder {
 public:
  static constexpr size_t kKeptSpans = 20000;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const SpanRec& s);
  // Removes and returns the spans recorded for `query`.
  std::vector<SpanRec> Take(uint64_t query);
  // Writes the kept spans as JSON lines; false when the file cannot be made.
  bool Dump(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<SpanRec>> by_query_;
  std::vector<SpanRec> kept_;
};

// Installs a query context on this thread for the scope's lifetime: spans
// opened here belong to `query` and nest under `parent`.
class QueryScope {
 public:
  QueryScope(Recorder* rec, uint64_t query, uint64_t parent);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  Recorder* saved_rec_;
  uint64_t saved_query_;
  uint64_t saved_parent_;
};

// Records one span in the thread's current query context (none: no-op).
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return rec_.id; }

 private:
  Recorder* recorder_;
  SpanRec rec_;
};

// The serve workload's per-client link between a client thread and the
// worker that runs its query: the client publishes the query and root span
// ids before Submit; the backend decorator adopts them on the worker thread.
struct ClientSlot {
  Recorder* recorder = nullptr;
  std::atomic<uint64_t> query{0};
  std::atomic<uint64_t> root{0};
  std::atomic<uint64_t> first_begin_ns{0};  // first BeginQueryEpoch of the query
};

// dbg::DebuggerBackend decorator: one kBackend span per call, plus the bytes
// each read returned. Forwards every virtual, the bulk reads included, so
// the decorated session takes the same paths as an undecorated one.
class TracingBackend final : public duel::dbg::DebuggerBackend {
 public:
  explicit TracingBackend(duel::dbg::DebuggerBackend& inner, ClientSlot* slot = nullptr)
      : inner_(&inner), slot_(slot) {}

  void GetTargetBytes(duel::target::Addr addr, void* out, size_t size) override;
  void PutTargetBytes(duel::target::Addr addr, const void* in, size_t size) override;
  bool ValidTargetBytes(duel::target::Addr addr, size_t size) override;
  duel::target::Addr AllocTargetSpace(size_t size, size_t align) override;
  size_t ReadTargetPrefix(duel::target::Addr addr, void* out, size_t size) override;
  std::vector<std::vector<uint8_t>> ReadTargetRanges(
      std::span<const duel::dbg::ReadRange> ranges) override;
  void BeginQueryEpoch() override;
  uint64_t SymbolEpoch() override { return inner_->SymbolEpoch(); }
  duel::target::RawDatum CallTargetFunc(const std::string& name,
                                        std::span<const duel::target::RawDatum> args) override;
  std::optional<duel::dbg::VariableInfo> GetTargetVariable(const std::string& name) override;
  std::optional<duel::dbg::FunctionInfo> GetTargetFunction(const std::string& name) override;
  duel::target::TypeRef GetTargetTypedef(const std::string& name) override;
  duel::target::TypeRef GetTargetStruct(const std::string& tag) override;
  duel::target::TypeRef GetTargetUnion(const std::string& tag) override;
  duel::target::TypeRef GetTargetEnum(const std::string& tag) override;
  std::optional<duel::dbg::EnumeratorInfo> GetTargetEnumerator(const std::string& name) override;
  size_t NumFrames() override;
  std::string FrameFunction(size_t frame) override;
  std::vector<duel::dbg::FrameVariable> FrameLocals(size_t frame) override;
  duel::target::TypeTable& Types() override { return inner_->Types(); }

  uint64_t bytes_read() const { return bytes_read_.load(std::memory_order_relaxed); }

 private:
  template <typename F>
  auto Traced(F&& f);

  duel::dbg::DebuggerBackend* inner_;
  ClientSlot* slot_;
  std::atomic<uint64_t> bytes_read_{0};
};

// rsp::Transport decorator: one kTransport span per round trip. Its self
// time (minus the kServer child) is the framing codec's cost.
class TracingTransport final : public duel::rsp::Transport {
 public:
  explicit TracingTransport(duel::rsp::Transport& inner) : inner_(&inner) {}
  std::string RoundTrip(const std::string& request) override;

 private:
  duel::rsp::Transport* inner_;
};

// rsp::RspServer with a kServer span around every Handle.
class TracingServer final : public duel::rsp::RspServer {
 public:
  explicit TracingServer(duel::dbg::DebuggerBackend& backend) : RspServer(backend) {}
  std::string Handle(const std::string& request) override;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
