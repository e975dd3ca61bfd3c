#include "src/support/obs/metrics.h"

#include <algorithm>

#include "src/support/strings.h"

namespace duel::obs {

namespace {

size_t BucketOf(uint64_t v) {
  size_t b = 0;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

std::string Ns(uint64_t ns) {
  if (ns >= 1'000'000'000) {
    return StrPrintf("%.2fs", static_cast<double>(ns) / 1e9);
  }
  if (ns >= 1'000'000) {
    return StrPrintf("%.2fms", static_cast<double>(ns) / 1e6);
  }
  if (ns >= 1'000) {
    return StrPrintf("%.1fus", static_cast<double>(ns) / 1e3);
  }
  return StrPrintf("%lluns", static_cast<unsigned long long>(ns));
}

}  // namespace

void Histogram::Record(uint64_t v) {
  count_++;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  buckets_[BucketOf(v)]++;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      uint64_t upper = i == 0 ? 1 : i >= 63 ? UINT64_MAX : (1ull << (i + 1));
      return std::min(upper, max_);
    }
  }
  return max_;
}

std::string Histogram::Summary() const {
  if (count_ == 0) {
    return "count=0";
  }
  return StrPrintf("count=%llu sum=%llu min=%llu mean=%llu p50<=%llu p99<=%llu max=%llu",
                   static_cast<unsigned long long>(count_),
                   static_cast<unsigned long long>(sum_),
                   static_cast<unsigned long long>(min()),
                   static_cast<unsigned long long>(mean()),
                   static_cast<unsigned long long>(Percentile(0.50)),
                   static_cast<unsigned long long>(Percentile(0.99)),
                   static_cast<unsigned long long>(max_));
}

std::string Histogram::ToJson() const {
  return StrPrintf(
      "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"mean\":%llu,\"p50\":%llu,"
      "\"p99\":%llu,\"max\":%llu}",
      static_cast<unsigned long long>(count_), static_cast<unsigned long long>(sum_),
      static_cast<unsigned long long>(min()), static_cast<unsigned long long>(mean()),
      static_cast<unsigned long long>(Percentile(0.50)),
      static_cast<unsigned long long>(Percentile(0.99)),
      static_cast<unsigned long long>(max_));
}

const char* NarrowCallName(NarrowCall c) {
  switch (c) {
    case NarrowCall::kGetBytes: return "get_target_bytes";
    case NarrowCall::kPutBytes: return "put_target_bytes";
    case NarrowCall::kValidBytes: return "valid_target_bytes";
    case NarrowCall::kAllocSpace: return "alloc_target_space";
    case NarrowCall::kCallFunc: return "call_target_func";
    case NarrowCall::kSymbolLookup: return "get_target_symbol";
    case NarrowCall::kTypeLookup: return "get_target_type";
    case NarrowCall::kFrames: return "frames";
    case NarrowCall::kReadVector: return "read_target_ranges";
    case NarrowCall::kNumKinds: break;
  }
  return "?";
}

void BackendInstr::ResetHistograms() {
  for (Histogram& h : latency_ns_) {
    h.Reset();
  }
  read_bytes_.Reset();
  write_bytes_.Reset();
}

EvalCounters CountersDelta(const EvalCounters& before, const EvalCounters& after) {
  EvalCounters d;
  d.eval_steps = after.eval_steps - before.eval_steps;
  d.values_produced = after.values_produced - before.values_produced;
  d.applies = after.applies - before.applies;
  d.name_lookups = after.name_lookups - before.name_lookups;
  d.symbolic_builds = after.symbolic_builds - before.symbolic_builds;
  return d;
}

CacheCounters CountersDelta(const CacheCounters& before, const CacheCounters& after) {
  CacheCounters d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.passthroughs = after.passthroughs - before.passthroughs;
  d.bytes_from_cache = after.bytes_from_cache - before.bytes_from_cache;
  d.bytes_fetched = after.bytes_fetched - before.bytes_fetched;
  d.block_fetches = after.block_fetches - before.block_fetches;
  d.invalidations = after.invalidations - before.invalidations;
  return d;
}

PlanCacheCounters CountersDelta(const PlanCacheCounters& before, const PlanCacheCounters& after) {
  PlanCacheCounters d;
  d.lookups = after.lookups - before.lookups;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.invalidations = after.invalidations - before.invalidations;
  d.evictions = after.evictions - before.evictions;
  return d;
}

std::vector<std::string> QueryStats::Render() const {
  std::vector<std::string> out;
  out.push_back("query: " + query);
  out.push_back(StrPrintf("phases: lex=%s parse=%s analyze=%s eval=%s total=%s  [plan %s]",
                          Ns(lex_ns).c_str(), Ns(parse_ns).c_str(), Ns(analyze_ns).c_str(),
                          Ns(eval_ns).c_str(), Ns(total_ns).c_str(),
                          plan_hit ? "cached" : "built"));
  if (diags_errors + diags_warnings > 0) {
    out.push_back(StrPrintf("diag: errors=%llu warnings=%llu",
                            static_cast<unsigned long long>(diags_errors),
                            static_cast<unsigned long long>(diags_warnings)));
  }
  if (plan.lookups > 0) {
    out.push_back(StrPrintf(
        "plan cache: lookups=%llu hits=%llu misses=%llu invalidations=%llu evictions=%llu",
        static_cast<unsigned long long>(plan.lookups),
        static_cast<unsigned long long>(plan.hits),
        static_cast<unsigned long long>(plan.misses),
        static_cast<unsigned long long>(plan.invalidations),
        static_cast<unsigned long long>(plan.evictions)));
  }
  out.push_back(StrPrintf(
      "eval: steps=%llu values=%llu applies=%llu name_lookups=%llu sym_builds=%llu",
      static_cast<unsigned long long>(eval.eval_steps),
      static_cast<unsigned long long>(eval.values_produced),
      static_cast<unsigned long long>(eval.applies),
      static_cast<unsigned long long>(eval.name_lookups),
      static_cast<unsigned long long>(eval.symbolic_builds)));
  if (cache.hits + cache.misses + cache.passthroughs > 0) {
    uint64_t served = cache.bytes_from_cache;
    out.push_back(StrPrintf(
        "cache: hits=%llu misses=%llu passthrough=%llu blocks=%llu "
        "bytes_from_cache=%llu bytes_fetched=%llu saved=%lld",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.passthroughs),
        static_cast<unsigned long long>(cache.block_fetches),
        static_cast<unsigned long long>(served),
        static_cast<unsigned long long>(cache.bytes_fetched),
        static_cast<long long>(served) - static_cast<long long>(cache.bytes_fetched)));
  }
  for (size_t i = 0; i < kNumNarrowCalls; ++i) {
    if (call_counts[i] == 0) {
      continue;
    }
    std::string line = StrPrintf("  %-20s calls=%llu", NarrowCallName(static_cast<NarrowCall>(i)),
                                 static_cast<unsigned long long>(call_counts[i]));
    if (call_ns[i].count() > 0) {
      line += StrPrintf("  lat(ns): mean=%llu p99<=%llu max=%llu",
                        static_cast<unsigned long long>(call_ns[i].mean()),
                        static_cast<unsigned long long>(call_ns[i].Percentile(0.99)),
                        static_cast<unsigned long long>(call_ns[i].max()));
    }
    out.push_back(line);
  }
  if (read_bytes.count() > 0) {
    out.push_back("  read sizes:  " + read_bytes.Summary());
  }
  if (write_bytes.count() > 0) {
    out.push_back("  write sizes: " + write_bytes.Summary());
  }
  return out;
}

std::vector<std::string> QueryStats::RenderProfile() const {
  std::vector<std::string> out;
  if (nodes.empty()) {
    out.push_back("(no profile collected; run with profiling enabled)");
    return out;
  }
  out.push_back(StrPrintf("per-node profile for: %s  (steps=%llu)", query.c_str(),
                          static_cast<unsigned long long>(profiled_steps)));
  out.push_back("   steps     time   time%  node");
  uint64_t total_time = 0;
  for (const NodeProfile& n : nodes) {
    total_time += n.time_ns;
  }
  for (const NodeProfile& n : nodes) {
    double pct = total_time == 0
                     ? 0.0
                     : 100.0 * static_cast<double>(n.time_ns) / static_cast<double>(total_time);
    std::string label(static_cast<size_t>(n.depth) * 2, ' ');
    label += n.op;
    if (!n.excerpt.empty()) {
      label += "  `" + n.excerpt + "`";
    }
    out.push_back(StrPrintf("%8llu %8s  %5.1f%%  %s",
                            static_cast<unsigned long long>(n.steps), Ns(n.time_ns).c_str(),
                            pct, label.c_str()));
  }
  return out;
}

std::string QueryStats::ToJson() const {
  std::string out = "{";
  out += "\"query\":\"" + JsonEscape(query) + "\"";
  out += StrPrintf(
      ",\"lex_ns\":%llu,\"parse_ns\":%llu,\"analyze_ns\":%llu,\"eval_ns\":%llu,"
      "\"total_ns\":%llu",
      static_cast<unsigned long long>(lex_ns), static_cast<unsigned long long>(parse_ns),
      static_cast<unsigned long long>(analyze_ns), static_cast<unsigned long long>(eval_ns),
      static_cast<unsigned long long>(total_ns));
  out += StrPrintf(",\"plan_hit\":%s", plan_hit ? "true" : "false");
  out += StrPrintf(",\"diag\":{\"errors\":%llu,\"warnings\":%llu}",
                   static_cast<unsigned long long>(diags_errors),
                   static_cast<unsigned long long>(diags_warnings));
  out += StrPrintf(
      ",\"plan\":{\"lookups\":%llu,\"hits\":%llu,\"misses\":%llu,\"invalidations\":%llu,"
      "\"evictions\":%llu}",
      static_cast<unsigned long long>(plan.lookups), static_cast<unsigned long long>(plan.hits),
      static_cast<unsigned long long>(plan.misses),
      static_cast<unsigned long long>(plan.invalidations),
      static_cast<unsigned long long>(plan.evictions));
  out += StrPrintf(",\"values\":%llu", static_cast<unsigned long long>(values));
  out += StrPrintf(
      ",\"eval\":{\"steps\":%llu,\"values\":%llu,\"applies\":%llu,\"name_lookups\":%llu,"
      "\"symbolic_builds\":%llu}",
      static_cast<unsigned long long>(eval.eval_steps),
      static_cast<unsigned long long>(eval.values_produced),
      static_cast<unsigned long long>(eval.applies),
      static_cast<unsigned long long>(eval.name_lookups),
      static_cast<unsigned long long>(eval.symbolic_builds));
  out += StrPrintf(
      ",\"cache\":{\"hits\":%llu,\"misses\":%llu,\"passthroughs\":%llu,"
      "\"bytes_from_cache\":%llu,\"bytes_fetched\":%llu,\"block_fetches\":%llu,"
      "\"invalidations\":%llu}",
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.passthroughs),
      static_cast<unsigned long long>(cache.bytes_from_cache),
      static_cast<unsigned long long>(cache.bytes_fetched),
      static_cast<unsigned long long>(cache.block_fetches),
      static_cast<unsigned long long>(cache.invalidations));
  out += ",\"narrow_calls\":{";
  bool first = true;
  for (size_t i = 0; i < kNumNarrowCalls; ++i) {
    if (call_counts[i] == 0) {
      continue;
    }
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrPrintf("\"%s\":{\"calls\":%llu,\"latency_ns\":%s}",
                     NarrowCallName(static_cast<NarrowCall>(i)),
                     static_cast<unsigned long long>(call_counts[i]),
                     call_ns[i].ToJson().c_str());
  }
  out += "}";
  if (read_bytes.count() > 0) {
    out += ",\"read_bytes\":" + read_bytes.ToJson();
  }
  if (write_bytes.count() > 0) {
    out += ",\"write_bytes\":" + write_bytes.ToJson();
  }
  if (!nodes.empty()) {
    out += StrPrintf(",\"profiled_steps\":%llu,\"profile\":[",
                     static_cast<unsigned long long>(profiled_steps));
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      out += StrPrintf(
          "{\"node\":%d,\"op\":\"%s\",\"excerpt\":\"%s\",\"steps\":%llu,\"time_ns\":%llu}",
          nodes[i].node_id, JsonEscape(nodes[i].op).c_str(),
          JsonEscape(nodes[i].excerpt).c_str(),
          static_cast<unsigned long long>(nodes[i].steps),
          static_cast<unsigned long long>(nodes[i].time_ns));
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace duel::obs
