#include "hotcache/region_registry.hpp"

#include <stdexcept>

#include "common/assert.hpp"

namespace semperm::hotcache {

RegionRegistry::RegionRegistry(std::size_t max_regions) : slots_(max_regions) {
  SEMPERM_ASSERT(max_regions > 0);
}

void RegionRegistry::write_slot(Slot& s, const void* base, std::size_t len,
                                std::uint8_t priority, bool live) {
  // Seqlock write: bump to odd, mutate, bump to even. Each payload store
  // releases the odd version before it, so a reader that acquires any new
  // payload value also sees the odd version on its second version read,
  // and retries. (No standalone fences: GCC's -fsanitize=thread rejects
  // std::atomic_thread_fence.)
  const std::uint32_t v = s.version.load(std::memory_order_relaxed);
  s.version.store(v + 1, std::memory_order_relaxed);
  s.base.store(static_cast<const std::byte*>(base), std::memory_order_release);
  s.len.store(len, std::memory_order_release);
  s.priority.store(priority, std::memory_order_release);
  s.live.store(live, std::memory_order_release);
  s.version.store(v + 2, std::memory_order_release);
}

std::size_t RegionRegistry::register_region(const void* base, std::size_t len,
                                            std::uint8_t priority) {
  SEMPERM_ASSERT(base != nullptr && len > 0);
  SpinLockGuard guard(mutate_lock_);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = high_water_.load(std::memory_order_relaxed);
    if (slot >= slots_.size())
      throw std::runtime_error("RegionRegistry: out of slots");
    high_water_.store(slot + 1, std::memory_order_release);
  }
  write_slot(slots_[slot], base, len, priority, /*live=*/true);
  live_.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void RegionRegistry::unregister_region(std::size_t handle) {
  SpinLockGuard guard(mutate_lock_);
  SEMPERM_ASSERT(handle < high_water_.load(std::memory_order_relaxed));
  Slot& s = slots_[handle];
  SEMPERM_ASSERT_MSG(s.live.load(std::memory_order_relaxed),
                     "double unregister of slot " << handle);
  write_slot(s, s.base.load(std::memory_order_relaxed),
             s.len.load(std::memory_order_relaxed),
             s.priority.load(std::memory_order_relaxed), /*live=*/false);
  free_slots_.push_back(handle);
  live_.fetch_sub(1, std::memory_order_relaxed);
}

bool RegionRegistry::snapshot(std::size_t i, RegionView& out) const {
  const Slot& s = slots_[i];
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t v1 = s.version.load(std::memory_order_acquire);
    if (v1 & 1u) continue;  // write in progress
    // Acquire payload loads: the second version read cannot move above
    // them, and it sees the odd version of any write whose payload they
    // saw.
    const RegionView view{s.base.load(std::memory_order_acquire),
                          s.len.load(std::memory_order_acquire),
                          s.priority.load(std::memory_order_acquire)};
    const bool live = s.live.load(std::memory_order_acquire);
    const std::uint32_t v2 = s.version.load(std::memory_order_relaxed);
    if (v1 == v2) {
      if (!live) return false;
      out = view;
      return true;
    }
  }
  return false;  // persistently contended: skip this slot this pass
}

std::size_t RegionRegistry::live_bytes() const {
  std::size_t total = 0;
  const std::size_t hw = slot_high_water();
  for (std::size_t i = 0; i < hw; ++i) {
    RegionView v;
    if (snapshot(i, v)) total += v.len;
  }
  return total;
}

}  // namespace semperm::hotcache
