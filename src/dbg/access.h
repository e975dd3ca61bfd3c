// The pluggable target-data access layer.
//
// The paper routes every byte an expression touches through
// duel_get_target_bytes, one small read at a time; over a remote debugger
// each read is a full round trip. MemoryAccess sits between the evaluators
// (EvalContext, output formatting) and any DebuggerBackend and turns that
// stream of tiny reads into a handful of block fetches:
//
//   - reads are served from aligned cached blocks (read combining); missing
//     blocks are fetched through DebuggerBackend::ReadTargetRanges, which
//     rsp::RemoteBackend maps onto one vectored qDuelReadV wire packet;
//   - sequential miss patterns trigger exponential readahead, so a scan like
//     x[..10000] costs O(blocks / readahead) round trips, not O(values);
//   - writes go through to the backend immediately and patch the cached
//     copy (write-through), so a query always reads its own writes;
//   - CallTargetFunc and AllocTargetSpace invalidate the whole cache (the
//     target may have mutated arbitrary memory / changed the memory map);
//   - BeginQuery() starts a fresh epoch: all cached data is dropped, so a
//     query can never observe bytes from before its own start. Cached
//     evaluation is therefore semantically identical to uncached.
//
// Fault semantics are preserved exactly: block fetches use valid-prefix
// reads (never faulting), and any request that cannot be served entirely
// from known-valid cached bytes falls through to the backend verbatim, so
// the MemoryFault an uncached evaluation would raise is raised here too.

#ifndef DUEL_DBG_ACCESS_H_
#define DUEL_DBG_ACCESS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/dbg/backend.h"
#include "src/support/counters.h"
#include "src/support/governor.h"

namespace duel::dbg {

class MemoryAccess {
 public:
  struct Config {
    size_t block_size = 256;        // aligned fetch unit (power of two)
    size_t max_blocks = 4096;       // cache capacity before a full drop (1 MiB)
    size_t max_readahead = 32;      // blocks fetched ahead on sequential misses
  };

  explicit MemoryAccess(DebuggerBackend& backend) : backend_(&backend) {}
  MemoryAccess(DebuggerBackend& backend, Config config)
      : backend_(&backend), config_(config) {}

  DebuggerBackend& backend() { return *backend_; }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    if (!on) {
      DropBlocks();
    }
  }

  // Starts a per-query epoch: drops every cached block here and lets the
  // backend drop its own client-side caches (symbols, types, frames).
  void BeginQuery();

  // The data half of BeginQuery: drops cached blocks without touching the
  // backend's client-side caches. For callers that already refreshed the
  // symbol view this epoch (the analyze stage runs before any data is read;
  // its symbol lookups stay memoized into evaluation).
  void BeginQueryData();

  // Drops cached data blocks (write-through keeps them fresh inside a query;
  // this is for events that can mutate memory behind the cache's back).
  void Invalidate();

  // --- the data path --------------------------------------------------------

  // Cached read; throws MemoryFault exactly when the backend would.
  void GetBytes(target::Addr addr, void* out, size_t size);

  // Cached valid-prefix read: copies the longest contiguously-valid prefix
  // of [addr, addr+size) and returns its length. Never throws. Used for
  // chunked string display.
  size_t GetBytesPrefix(target::Addr addr, void* out, size_t size);

  // GetBytesPrefix without the governor charge, for a caller that reads a
  // run ahead of the values it consumes and charges the budget per value
  // as it takes each one (the engine's filter scan, eval_sm.cc). Counts one
  // hit per run.
  size_t ReadRun(target::Addr addr, void* out, size_t size);

  // Write-through: backend first (faults propagate), then the cache is
  // patched or evicted so subsequent reads see the new bytes.
  void PutBytes(target::Addr addr, const void* in, size_t size);

  // Answered from cache when the range lies inside known-valid bytes.
  bool ValidBytes(target::Addr addr, size_t size);

  // Pass-throughs that invalidate: a target call may write anywhere; an
  // allocation changes the memory map.
  target::RawDatum CallFunc(const std::string& name,
                            std::span<const target::RawDatum> args);
  target::Addr Alloc(size_t size, size_t align);

  CacheCounters& counters() { return counters_; }
  const Config& config() const { return config_; }

  // Per-query execution governor (may be null). When attached and armed,
  // every cached read charges its requested size against the target-read
  // budget — cache hits included, so a governed query's byte accounting is
  // identical whether the block cache is on or off.
  void set_governor(ExecGovernor* g) { governor_ = g; }
  ExecGovernor* governor() const { return governor_; }

 private:
  struct Block {
    std::vector<uint8_t> bytes;  // block_size long
    size_t valid_len = 0;        // contiguously-valid prefix actually fetched
  };

  // Makes sure blocks [first, last] are present, fetching the missing ones
  // (plus readahead) in one vectored backend request.
  void EnsureBlocks(uint64_t first, uint64_t last);

  // True when [addr, addr+size) lies entirely inside the valid prefixes of
  // cached blocks; copies the bytes into `out` (unless null).
  bool TryServe(target::Addr addr, void* out, size_t size);

  void DropBlocks();

  // The cached block `index`, or null. Remembers the last block found:
  // reads come in runs within one block.
  Block* FindBlock(uint64_t index);

  // ReadRun's copy from cached blocks: the valid prefix of [addr,
  // addr+size), setting `absent` when it stopped at a block not cached.
  size_t CopyPrefix(target::Addr addr, void* out, size_t size, bool* absent);

  DebuggerBackend* backend_;
  Config config_;
  ExecGovernor* governor_ = nullptr;
  bool enabled_ = true;
  std::map<uint64_t, Block> blocks_;  // block index -> contents
  uint64_t last_index_ = UINT64_MAX;  // FindBlock's memo: map nodes stay put
  Block* last_block_ = nullptr;       // until erased or cleared
  uint64_t next_seq_block_ = UINT64_MAX;  // readahead: next block if sequential
  unsigned seq_run_ = 0;                  // consecutive sequential misses
  CacheCounters counters_;
};

}  // namespace duel::dbg

#endif  // DUEL_DBG_ACCESS_H_
