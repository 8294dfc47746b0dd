// semperm/memlayout/arena.hpp
//
// Cache-line-aligned arena allocation with *deterministic simulated
// addresses*.
//
// The cache simulator maps addresses to cache sets, so simulated experiments
// must see the same address stream on every run regardless of ASLR or heap
// state. Each experiment owns an AddressSpace; every Arena reserves a
// disjoint simulated region from it and translates its real pointers into
// that region. Native (non-simulated) users simply ignore the simulated
// addresses — the arena is still a fast bump allocator.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace semperm::memlayout {

/// Alignment of every arena buffer and simulated region (one page): any
/// sub-alignment the pools request (64, 128, 256...) then holds for both
/// the real pointer and its simulated address.
inline constexpr std::size_t kArenaAlign = 4096;

/// Hands out disjoint simulated address regions. One per experiment.
class AddressSpace {
 public:
  /// Simulated addresses start well away from zero so that address 0 can
  /// serve as "no address" in traces.
  explicit AddressSpace(Addr base = 0x1000'0000) : next_(base) {}

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Reserve `bytes` aligned to `align` (power of two, >= kCacheLine).
  Addr reserve(std::size_t bytes, std::size_t align = kArenaAlign) {
    SEMPERM_ASSERT(align >= kCacheLine && (align & (align - 1)) == 0);
    next_ = round_up(next_, align);
    const Addr base = next_;
    next_ += round_up(bytes, align);
    return base;
  }

  Addr high_water() const { return next_; }

 private:
  Addr next_;
};

/// Bump allocator over one contiguous, cache-line-aligned buffer with a
/// matching simulated address region. Memory is never returned to the arena
/// individually — pools layered on top provide reuse (see block_pool.hpp),
/// which is exactly the element-reuse discipline the paper's hot-caching
/// implementation needs (§3.2: the heater must never observe freed memory).
class Arena {
 public:
  Arena(AddressSpace& space, std::size_t capacity_bytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate `bytes` with the given alignment; throws std::bad_alloc via
  /// SEMPERM_ASSERT failure if the arena is exhausted.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t));

  /// Typed allocation of `n` default-constructed objects.
  template <typename T>
  T* create_array(std::size_t n) {
    void* p = allocate(sizeof(T) * n, alignof(T));
    return new (p) T[n]{};
  }

  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return new (p) T(static_cast<Args&&>(args)...);
  }

  /// Reset the bump pointer; all previous allocations become invalid.
  void reset() { used_ = 0; }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  std::size_t remaining() const { return capacity_ - used_; }

  /// True if `p` points into this arena's buffer.
  bool contains(const void* p) const;

  /// Simulated address of a real pointer into this arena.
  Addr sim_addr(const void* p) const;

  /// Start of the simulated region.
  Addr sim_base() const { return sim_base_; }

  const void* buffer_base() const { return buffer_.get(); }

 private:
  struct FreeDeleter {
    void operator()(void* p) const {
      ::operator delete[](p, std::align_val_t{kArenaAlign});
    }
  };

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::unique_ptr<char, FreeDeleter> buffer_;
  Addr sim_base_;
};

}  // namespace semperm::memlayout
