#include "src/dbg/access.h"

#include <algorithm>
#include <cstring>

namespace duel::dbg {

using target::Addr;

// --- DebuggerBackend bulk-read defaults -------------------------------------

size_t DebuggerBackend::ReadTargetPrefix(Addr addr, void* out, size_t size) {
  if (size == 0) {
    return 0;
  }
  size_t n = size;
  if (!ValidTargetBytes(addr, n)) {
    // Bisect for the longest valid prefix: Valid(addr, lo) holds, hi fails.
    size_t lo = 0, hi = n;
    while (hi - lo > 1) {
      size_t mid = lo + (hi - lo) / 2;
      if (ValidTargetBytes(addr, mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    n = lo;
  }
  if (n == 0) {
    return 0;
  }
  try {
    GetTargetBytes(addr, out, n);
  } catch (const MemoryFault&) {
    return 0;  // raced with the validity probe; treat as unreadable
  }
  return n;
}

std::vector<std::vector<uint8_t>> DebuggerBackend::ReadTargetRanges(
    std::span<const ReadRange> ranges) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(ranges.size());
  for (const ReadRange& r : ranges) {
    std::vector<uint8_t> bytes(r.size);
    bytes.resize(ReadTargetPrefix(r.addr, bytes.data(), r.size));
    out.push_back(std::move(bytes));
  }
  return out;
}

// --- MemoryAccess ------------------------------------------------------------

void MemoryAccess::BeginQuery() {
  DropBlocks();
  backend_->BeginQueryEpoch();
}

void MemoryAccess::BeginQueryData() { DropBlocks(); }

void MemoryAccess::Invalidate() {
  counters_.invalidations++;
  DropBlocks();
}

void MemoryAccess::DropBlocks() {
  blocks_.clear();
  last_index_ = UINT64_MAX;
  last_block_ = nullptr;
  next_seq_block_ = UINT64_MAX;
  seq_run_ = 0;
}

void MemoryAccess::EnsureBlocks(uint64_t first, uint64_t last) {
  const size_t bs = config_.block_size;
  auto absent = [this](uint64_t b) { return FindBlock(b) == nullptr; };
  size_t missing = 0;
  uint64_t lead = first;  // the first block not cached
  for (uint64_t b = first; b <= last; ++b) {
    if (absent(b) && missing++ == 0) {
      lead = b;
    }
  }
  if (missing == 0) {
    return;
  }
  counters_.misses++;
  // Sequential scans double the fetch window each miss (capped), so a long
  // forward read costs O(log + blocks/max_readahead) round trips. A read
  // that starts in cached blocks (a walk's aligned run) continues the streak
  // from its first missing block.
  if (lead == next_seq_block_) {
    seq_run_ = std::min<unsigned>(seq_run_ + 1, 31);
  } else {
    seq_run_ = 0;
  }
  size_t ahead = std::min<size_t>(config_.max_readahead,
                                  seq_run_ == 0 ? 0 : (size_t{1} << std::min(seq_run_, 6u)));
  uint64_t end = last;  // the last block to fetch, readahead included
  for (; ahead > 0 && end + 1 > last; --ahead) {
    ++end;
    missing += absent(end) ? 1 : 0;
  }
  if (blocks_.size() + missing > config_.max_blocks) {
    // Simple overflow policy: start over. Every block of the span is
    // missing now, including the ones that were cached a moment ago.
    Invalidate();
  }
  std::vector<uint64_t> fetch;
  fetch.reserve(static_cast<size_t>(end - first + 1));
  for (uint64_t b = first; b <= end && b >= first; ++b) {
    if (absent(b)) {
      fetch.push_back(b);
    }
  }
  std::vector<ReadRange> ranges;
  ranges.reserve(fetch.size());
  for (uint64_t b : fetch) {
    ranges.push_back(ReadRange{b * bs, bs});
  }
  std::vector<std::vector<uint8_t>> results = backend_->ReadTargetRanges(ranges);
  for (size_t i = 0; i < fetch.size(); ++i) {
    Block blk;
    blk.valid_len = i < results.size() ? results[i].size() : 0;
    blk.bytes = i < results.size() ? std::move(results[i]) : std::vector<uint8_t>();
    blk.bytes.resize(bs);
    counters_.bytes_fetched += blk.valid_len;
    counters_.block_fetches++;
    blocks_[fetch[i]] = std::move(blk);
  }
  // The streak continues at the first block past everything just fetched
  // (including readahead), so a long scan keeps doubling its window.
  next_seq_block_ = end + 1;
}

MemoryAccess::Block* MemoryAccess::FindBlock(uint64_t index) {
  if (index == last_index_) {
    return last_block_;
  }
  auto it = blocks_.find(index);
  if (it == blocks_.end()) {
    return nullptr;
  }
  last_index_ = index;
  last_block_ = &it->second;
  return last_block_;
}

bool MemoryAccess::TryServe(Addr addr, void* out, size_t size) {
  const size_t bs = config_.block_size;
  uint8_t* dst = static_cast<uint8_t*>(out);
  Addr pos = addr;
  size_t remaining = size;
  while (remaining > 0) {
    const Block* blk = FindBlock(pos / bs);
    if (blk == nullptr) {
      return false;
    }
    size_t off = static_cast<size_t>(pos % bs);
    size_t chunk = std::min(remaining, bs - off);
    if (off + chunk > blk->valid_len) {
      return false;  // touches bytes the block fetch found unreadable
    }
    if (dst != nullptr) {
      std::memcpy(dst, blk->bytes.data() + off, chunk);
      dst += chunk;
    }
    pos += chunk;
    remaining -= chunk;
  }
  return true;
}

void MemoryAccess::GetBytes(Addr addr, void* out, size_t size) {
  if (governor_ != nullptr) {
    governor_->ChargeReadBytes(size);
  }
  if (!enabled_ || size == 0) {
    backend_->GetTargetBytes(addr, out, size);
    return;
  }
  const size_t bs = config_.block_size;
  // Served from present blocks without the fetch pass; EnsureBlocks only
  // when the first try fails.
  if (TryServe(addr, out, size) ||
      (EnsureBlocks(addr / bs, (addr + size - 1) / bs), TryServe(addr, out, size))) {
    counters_.hits++;
    counters_.bytes_from_cache += size;
    return;
  }
  // Outside the known-valid bytes: forward the exact request so the backend
  // raises (or doesn't) precisely the fault uncached evaluation would see.
  counters_.passthroughs++;
  backend_->GetTargetBytes(addr, out, size);
}

size_t MemoryAccess::GetBytesPrefix(Addr addr, void* out, size_t size) {
  if (governor_ != nullptr) {
    governor_->ChargeReadBytes(size);
  }
  return ReadRun(addr, out, size);
}

size_t MemoryAccess::ReadRun(Addr addr, void* out, size_t size) {
  if (!enabled_) {
    return backend_->ReadTargetPrefix(addr, out, size);
  }
  if (size == 0) {
    return 0;
  }
  bool absent = false;
  size_t total = CopyPrefix(addr, out, size, &absent);
  if (absent) {
    const size_t bs = config_.block_size;
    EnsureBlocks(addr / bs, (addr + size - 1) / bs);
    total = CopyPrefix(addr, out, size, &absent);
  }
  counters_.hits++;
  counters_.bytes_from_cache += total;
  return total;
}

size_t MemoryAccess::CopyPrefix(Addr addr, void* out, size_t size, bool* absent) {
  const size_t bs = config_.block_size;
  uint8_t* dst = static_cast<uint8_t*>(out);
  Addr pos = addr;
  size_t total = 0;
  while (total < size) {
    const Block* found = FindBlock(pos / bs);
    if (found == nullptr) {
      *absent = true;
      break;
    }
    const Block& blk = *found;
    size_t off = static_cast<size_t>(pos % bs);
    if (off >= blk.valid_len) {
      break;
    }
    size_t chunk = std::min(size - total, blk.valid_len - off);
    std::memcpy(dst + total, blk.bytes.data() + off, chunk);
    total += chunk;
    pos += chunk;
    if (off + chunk < bs) {
      break;  // stopped inside the block: the next byte is unreadable
    }
  }
  return total;
}

void MemoryAccess::PutBytes(Addr addr, const void* in, size_t size) {
  backend_->PutTargetBytes(addr, in, size);
  if (!enabled_ || size == 0 || blocks_.empty()) {
    return;
  }
  const size_t bs = config_.block_size;
  const uint8_t* src = static_cast<const uint8_t*>(in);
  for (uint64_t b = addr / bs; b <= (addr + size - 1) / bs; ++b) {
    auto it = blocks_.find(b);
    if (it == blocks_.end()) {
      continue;
    }
    Addr block_base = b * bs;
    Addr lo = std::max(addr, block_base);
    Addr hi = std::min(addr + size, block_base + bs);
    size_t off = static_cast<size_t>(lo - block_base);
    if (off + (hi - lo) <= it->second.valid_len) {
      std::memcpy(it->second.bytes.data() + off, src + (lo - addr),
                  static_cast<size_t>(hi - lo));
    } else {
      // The write landed on bytes the fetch saw as unreadable (the memory
      // map moved under us); the cached prefix is no longer trustworthy.
      if (&it->second == last_block_) {
        last_index_ = UINT64_MAX;
        last_block_ = nullptr;
      }
      blocks_.erase(it);
    }
  }
}

bool MemoryAccess::ValidBytes(Addr addr, size_t size) {
  if (enabled_ && size > 0 && TryServe(addr, nullptr, size)) {
    counters_.hits++;
    return true;
  }
  return backend_->ValidTargetBytes(addr, size);
}

target::RawDatum MemoryAccess::CallFunc(const std::string& name,
                                        std::span<const target::RawDatum> args) {
  target::RawDatum ret = backend_->CallTargetFunc(name, args);
  Invalidate();  // the call may have written anywhere in the target
  return ret;
}

Addr MemoryAccess::Alloc(size_t size, size_t align) {
  Addr addr = backend_->AllocTargetSpace(size, align);
  Invalidate();  // the memory map changed: previously-invalid bytes may be valid
  return addr;
}

}  // namespace duel::dbg
