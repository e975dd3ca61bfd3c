#include "trace.h"

#include <cstdio>
#include <optional>

#include "stats.h"

namespace perfbench {

namespace {

struct TraceContext {
  Recorder* rec = nullptr;
  uint64_t query = 0;
  uint64_t parent = 0;
};

TraceContext& Tls() {
  thread_local TraceContext ctx;
  return ctx;
}

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kQuery:
      return "query";
    case Layer::kEval:
      return "duel.eval";
    case Layer::kOutput:
      return "duel.output";
    case Layer::kBackend:
      return "dbg.backend";
    case Layer::kTransport:
      return "rsp.transport";
    case Layer::kServer:
      return "rsp.server";
    case Layer::kCount:
      break;
  }
  return "?";
}

void LayerTotals::Add(const LayerTotals& o) {
  for (size_t i = 0; i < count.size(); ++i) {
    count[i] += o.count[i];
    dur_ns[i] += o.dur_ns[i];
    self_ns[i] += o.self_ns[i];
  }
}

LayerTotals Totals(const std::vector<SpanRec>& spans) {
  std::vector<Interval> iv;
  iv.reserve(spans.size());
  for (const SpanRec& s : spans) {
    iv.push_back({s.id, s.parent, s.start, s.end});
  }
  std::vector<uint64_t> self = SelfTimes(iv);
  LayerTotals t;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto l = static_cast<size_t>(spans[i].layer);
    t.count[l]++;
    t.dur_ns[l] += spans[i].end - spans[i].start;
    t.self_ns[l] += self[i];
  }
  return t;
}

void Recorder::Add(const SpanRec& s) {
  std::lock_guard<std::mutex> lock(mu_);
  by_query_[s.query].push_back(s);
  if (kept_.size() < kKeptSpans) {
    kept_.push_back(s);
  }
}

std::vector<SpanRec> Recorder::Take(uint64_t query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_query_.find(query);
  if (it == by_query_.end()) {
    return {};
  }
  std::vector<SpanRec> out = std::move(it->second);
  by_query_.erase(it);
  return out;
}

bool Recorder::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRec& s : kept_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"query\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 LayerName(s.layer), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  return std::fclose(f) == 0;
}

QueryScope::QueryScope(Recorder* rec, uint64_t query, uint64_t parent) {
  TraceContext& t = Tls();
  saved_rec_ = t.rec;
  saved_query_ = t.query;
  saved_parent_ = t.parent;
  t = {rec, query, parent};
}

QueryScope::~QueryScope() { Tls() = {saved_rec_, saved_query_, saved_parent_}; }

ScopedSpan::ScopedSpan(Layer layer) : recorder_(Tls().rec) {
  if (recorder_ == nullptr) {
    return;
  }
  TraceContext& t = Tls();
  rec_.id = recorder_->NewId();
  rec_.parent = t.parent;
  rec_.query = t.query;
  rec_.layer = layer;
  t.parent = rec_.id;
  rec_.start = Now();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) {
    return;
  }
  rec_.end = Now();
  Tls().parent = rec_.parent;
  recorder_->Add(rec_);
}

// --- TracingBackend ----------------------------------------------------------

template <typename F>
auto TracingBackend::Traced(F&& f) {
  // On a serve worker thread no query context is installed: adopt the one
  // the client published for its in-flight query.
  std::optional<QueryScope> adopt;
  if (Tls().rec == nullptr && slot_ != nullptr) {
    uint64_t q = slot_->query.load(std::memory_order_acquire);
    if (q != 0) {
      adopt.emplace(slot_->recorder, q, slot_->root.load(std::memory_order_acquire));
    }
  }
  ScopedSpan span(Layer::kBackend);
  return f();
}

void TracingBackend::GetTargetBytes(duel::target::Addr addr, void* out, size_t size) {
  Traced([&] { inner_->GetTargetBytes(addr, out, size); });
  bytes_read_.fetch_add(size, std::memory_order_relaxed);
}

void TracingBackend::PutTargetBytes(duel::target::Addr addr, const void* in, size_t size) {
  Traced([&] { inner_->PutTargetBytes(addr, in, size); });
}

bool TracingBackend::ValidTargetBytes(duel::target::Addr addr, size_t size) {
  return Traced([&] { return inner_->ValidTargetBytes(addr, size); });
}

duel::target::Addr TracingBackend::AllocTargetSpace(size_t size, size_t align) {
  return Traced([&] { return inner_->AllocTargetSpace(size, align); });
}

size_t TracingBackend::ReadTargetPrefix(duel::target::Addr addr, void* out, size_t size) {
  size_t n = Traced([&] { return inner_->ReadTargetPrefix(addr, out, size); });
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

std::vector<std::vector<uint8_t>> TracingBackend::ReadTargetRanges(
    std::span<const duel::dbg::ReadRange> ranges) {
  std::vector<std::vector<uint8_t>> out = Traced([&] { return inner_->ReadTargetRanges(ranges); });
  uint64_t n = 0;
  for (const std::vector<uint8_t>& r : out) {
    n += r.size();
  }
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  return out;
}

void TracingBackend::BeginQueryEpoch() {
  if (slot_ != nullptr) {
    uint64_t zero = 0;
    slot_->first_begin_ns.compare_exchange_strong(zero, Now(), std::memory_order_acq_rel);
  }
  Traced([&] { inner_->BeginQueryEpoch(); });
}

duel::target::RawDatum TracingBackend::CallTargetFunc(
    const std::string& name, std::span<const duel::target::RawDatum> args) {
  return Traced([&] { return inner_->CallTargetFunc(name, args); });
}

std::optional<duel::dbg::VariableInfo> TracingBackend::GetTargetVariable(const std::string& name) {
  return Traced([&] { return inner_->GetTargetVariable(name); });
}

std::optional<duel::dbg::FunctionInfo> TracingBackend::GetTargetFunction(const std::string& name) {
  return Traced([&] { return inner_->GetTargetFunction(name); });
}

duel::target::TypeRef TracingBackend::GetTargetTypedef(const std::string& name) {
  return Traced([&] { return inner_->GetTargetTypedef(name); });
}

duel::target::TypeRef TracingBackend::GetTargetStruct(const std::string& tag) {
  return Traced([&] { return inner_->GetTargetStruct(tag); });
}

duel::target::TypeRef TracingBackend::GetTargetUnion(const std::string& tag) {
  return Traced([&] { return inner_->GetTargetUnion(tag); });
}

duel::target::TypeRef TracingBackend::GetTargetEnum(const std::string& tag) {
  return Traced([&] { return inner_->GetTargetEnum(tag); });
}

std::optional<duel::dbg::EnumeratorInfo> TracingBackend::GetTargetEnumerator(
    const std::string& name) {
  return Traced([&] { return inner_->GetTargetEnumerator(name); });
}

size_t TracingBackend::NumFrames() {
  return Traced([&] { return inner_->NumFrames(); });
}

std::string TracingBackend::FrameFunction(size_t frame) {
  return Traced([&] { return inner_->FrameFunction(frame); });
}

std::vector<duel::dbg::FrameVariable> TracingBackend::FrameLocals(size_t frame) {
  return Traced([&] { return inner_->FrameLocals(frame); });
}

// --- rsp decorators --------------------------------------------------------------

std::string TracingTransport::RoundTrip(const std::string& request) {
  ScopedSpan span(Layer::kTransport);
  std::string response = inner_->RoundTrip(request);
  round_trips_ = inner_->round_trips();
  bytes_on_wire_ = inner_->bytes_on_wire();
  return response;
}

std::string TracingServer::Handle(const std::string& request) {
  ScopedSpan span(Layer::kServer);
  return RspServer::Handle(request);
}

}  // namespace perfbench
