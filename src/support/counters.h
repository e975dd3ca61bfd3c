// Lightweight instrumentation counters.
//
// The experiments in EXPERIMENTS.md report operation counts (cache hits,
// plan reuse, eval steps) alongside wall-clock times, since absolute
// 1992-era timings are not reproducible. Narrow-call counts and target
// bytes moved are metered by obs::BackendInstr (src/support/obs/metrics.h).

#ifndef DUEL_SUPPORT_COUNTERS_H_
#define DUEL_SUPPORT_COUNTERS_H_

#include <cstdint>

namespace duel {

// dbg::MemoryAccess (the read-combining cache between the evaluators and the
// backend) meters itself here. hits/misses count requests; bytes_from_cache
// vs bytes_fetched is the "bytes saved" story the E4-style ablation reports.
struct CacheCounters {
  uint64_t hits = 0;            // requests served entirely from cached blocks
  uint64_t misses = 0;          // requests that needed at least one block fetch
  uint64_t passthroughs = 0;    // requests forwarded verbatim (cache off / unserveable)
  uint64_t bytes_from_cache = 0;
  uint64_t bytes_fetched = 0;   // bytes pulled from the backend into blocks
  uint64_t block_fetches = 0;   // blocks fetched (over vectored or scalar reads)
  uint64_t invalidations = 0;   // whole-cache drops (epoch, call, alloc, overflow)

  void Reset() { *this = CacheCounters(); }
};

// Session plan cache (duel::PlanCache): compiled-query reuse across queries.
// lookups = hits + misses; invalidations count plans found but stale
// (epoch/alias mismatch — a subset of misses), evictions count LRU drops.
struct PlanCacheCounters {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t evictions = 0;

  void Reset() { *this = PlanCacheCounters(); }
};

struct EvalCounters {
  uint64_t eval_steps = 0;       // calls into eval() / generator resumptions
  uint64_t values_produced = 0;  // values yielded by the root expression
  uint64_t applies = 0;          // primitive operator applications
  uint64_t name_lookups = 0;     // identifier resolutions (aliases + target)
  uint64_t symbolic_builds = 0;  // symbolic-value string compositions

  void Reset() { *this = EvalCounters(); }
};

}  // namespace duel

#endif  // DUEL_SUPPORT_COUNTERS_H_
