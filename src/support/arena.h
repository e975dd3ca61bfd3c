// A bump arena: one owner's short-lived, trivially destructible records.
//
// The evaluation context keeps one per session for the values a query makes
// (symbolic-text records and aggregate rvalue bytes) and rewinds it at the
// top of every query; owners that keep a value longer (aliases, a compiled
// plan's constants) copy what it points at into an arena of their own.
// Allocation is a pointer bump inside the current block; blocks grow
// geometrically, and nothing is freed one by one.
//
// Rewind() keeps only the first block. Under AddressSanitizer the unused
// part of every block is poisoned, so a read through a pointer that outlived
// a rewind is reported where it happens.

#ifndef DUEL_SUPPORT_ARENA_H_
#define DUEL_SUPPORT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define DUEL_ARENA_POISONS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DUEL_ARENA_POISONS 1
#endif
#endif
#ifdef DUEL_ARENA_POISONS
#include <sanitizer/asan_interface.h>
#endif

namespace duel {

class Arena {
 public:
  explicit Arena(size_t first_block = 8 * 1024) : first_size_(first_block) {}
  ~Arena() { Clear(); }

  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // `n` bytes aligned to `align` (a power of two). Never returns null.
  void* Allocate(size_t n, size_t align = alignof(uint64_t)) {
    size_t pad = (align - reinterpret_cast<uintptr_t>(cur_) % align) % align;
    if (last_ == nullptr || static_cast<size_t>(end_ - cur_) < pad + n) {
      return AllocateSlow(n, align);
    }
    uint8_t* p = cur_ + pad;
    used_ += pad + n;
    cur_ = p + n;
#ifdef DUEL_ARENA_POISONS
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
    return p;
  }

  // A copy of `n` bytes starting at `p`.
  uint8_t* Copy(const void* p, size_t n);

  // Constructs a T in the arena. T's destructor never runs.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (Allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  // Invalidates everything allocated so far. The first block is kept for
  // reuse; later ones are freed.
  void Rewind();

  // Frees every block.
  void Clear();

  // Bytes handed out since the last Rewind/Clear, padding included.
  size_t used() const { return used_; }
  // Blocks currently held.
  size_t blocks() const;

 private:
  struct Block {
    Block* prev;  // the block allocated before this one; null for the first
    size_t size;  // usable bytes after the header
    uint8_t* data() { return reinterpret_cast<uint8_t*>(this + 1); }
  };

  void* AllocateSlow(size_t n, size_t align);

  Block* last_ = nullptr;    // newest block; the chain ends at the first
  uint8_t* cur_ = nullptr;  // next free byte in last_
  uint8_t* end_ = nullptr;  // end of last_
  size_t first_size_;
  size_t used_ = 0;
};

}  // namespace duel

#endif  // DUEL_SUPPORT_ARENA_H_
