// RAII span tracing into a bounded ring buffer.
//
// A Tracer records completed spans (name, detail, start, duration, nesting)
// into a fixed-capacity ring; when the ring is full the oldest spans are
// dropped and counted. Spans nest via an explicit stack, so the trace of a
// query reads as lex → parse → analyze → eval → backend.* leaves. The buffer can
// be exported as JSONL (one object per line) for offline tooling.
//
// Tracing is off by default and every hot-path check is a single branch on
// `enabled()`; a disabled tracer performs no clock reads and no allocation.

#ifndef DUEL_SUPPORT_OBS_TRACE_H_
#define DUEL_SUPPORT_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace duel::obs {

// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

struct TraceEvent {
  uint64_t id = 0;      // 1-based span id, unique within a Tracer
  uint64_t parent = 0;  // 0 = root
  int depth = 0;
  std::string name;
  std::string detail;
  uint64_t start_ns = 0;  // since tracer construction / Clear()
  uint64_t dur_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 4096);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Drops all recorded spans and re-bases the epoch.
  void Clear();

  // Manual span API; prefer the RAII Span below. BeginSpan returns a token
  // (0 when disabled) to pass to EndSpan.
  uint64_t BeginSpan(std::string name, std::string detail = std::string());
  void EndSpan(uint64_t token);

  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t dropped() const { return dropped_; }

  // Completed spans, oldest first.
  std::vector<TraceEvent> Events() const;

  // One JSON object per line:
  //   {"id":3,"parent":1,"depth":1,"name":"eval","detail":"","start_ns":10,"dur_ns":42}
  void ExportJsonl(std::ostream& os) const;

 private:
  struct Active {
    uint64_t id;
    std::string name;
    std::string detail;
    uint64_t start_ns;
  };

  bool enabled_ = false;
  size_t capacity_;
  uint64_t epoch_ns_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  size_t head_ = 0;  // insertion point once the ring has wrapped
  std::vector<TraceEvent> events_;
  std::vector<Active> stack_;
};

// Escapes `s` for inclusion in a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& s);

// RAII span: records on destruction. A null tracer (or a disabled one) makes
// construction and destruction near-free.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::string detail = std::string())
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        token_(tracer_ != nullptr ? tracer_->BeginSpan(name, std::move(detail)) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(token_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint64_t token_;
};

}  // namespace duel::obs

#endif  // DUEL_SUPPORT_OBS_TRACE_H_
