#include "src/support/arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace duel {

namespace {

constexpr size_t kMaxBlock = 64 * 1024;

void Poison([[maybe_unused]] void* p, [[maybe_unused]] size_t n) {
#ifdef DUEL_ARENA_POISONS
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

void Unpoison([[maybe_unused]] void* p, [[maybe_unused]] size_t n) {
#ifdef DUEL_ARENA_POISONS
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

}  // namespace

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    Clear();
    last_ = std::exchange(other.last_, nullptr);
    cur_ = std::exchange(other.cur_, nullptr);
    end_ = std::exchange(other.end_, nullptr);
    first_size_ = other.first_size_;
    used_ = std::exchange(other.used_, 0);
  }
  return *this;
}

void* Arena::AllocateSlow(size_t n, size_t align) {
  size_t size = last_ == nullptr ? first_size_ : std::min(last_->size * 2, kMaxBlock);
  size = std::max(size, n + align);
  void* raw = std::malloc(sizeof(Block) + size);
  if (raw == nullptr) {
    throw std::bad_alloc();
  }
  Block* b = static_cast<Block*>(raw);
  b->prev = last_;
  b->size = size;
  Poison(b->data(), size);
  last_ = b;
  cur_ = b->data();
  end_ = cur_ + size;
  return Allocate(n, align);
}

uint8_t* Arena::Copy(const void* p, size_t n) {
  auto* out = static_cast<uint8_t*>(Allocate(n, 1));
  if (n != 0) {
    std::memcpy(out, p, n);
  }
  return out;
}

void Arena::Rewind() {
  if (last_ == nullptr) {
    return;
  }
  while (last_->prev != nullptr) {
    Block* prev = last_->prev;
    Unpoison(last_->data(), last_->size);
    std::free(last_);
    last_ = prev;
  }
  Poison(last_->data(), last_->size);
  cur_ = last_->data();
  end_ = cur_ + last_->size;
  used_ = 0;
}

void Arena::Clear() {
  while (last_ != nullptr) {
    Block* prev = last_->prev;
    Unpoison(last_->data(), last_->size);
    std::free(last_);
    last_ = prev;
  }
  cur_ = nullptr;
  end_ = nullptr;
  used_ = 0;
}

size_t Arena::blocks() const {
  size_t n = 0;
  for (const Block* b = last_; b != nullptr; b = b->prev) {
    ++n;
  }
  return n;
}

}  // namespace duel
