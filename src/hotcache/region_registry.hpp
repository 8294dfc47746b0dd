// semperm/hotcache/region_registry.hpp
//
// The shared list of memory regions the heater thread keeps hot — the data
// structure at the centre of the paper's §3.2 "challenge 2": naive mutual
// exclusion around a long region list is a performance problem, and
// deallocating a region the heater is mid-read is a crash.
//
// Design (following the paper's resolution):
//  * slots are NEVER removed — unregistering tombstones the slot, and new
//    registrations reuse tombstoned slots;
//  * each slot is protected by a seqlock so the heater reads without ever
//    blocking a registering/unregistering application thread;
//  * the caller must guarantee registered memory remains *readable* until
//    the registry is destroyed (pool-backed allocations provide this; see
//    memlayout::BlockPool). Reading tombstoned-but-alive memory is
//    harmless; reading unmapped memory would not be.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace semperm::hotcache {

/// A snapshot of one region, as read by the heater. `priority` orders
/// regions for graceful degradation: 0 is the most important; a
/// degraded heater (resilience/heater_watchdog) stops heating regions whose
/// priority exceeds its current ceiling.
struct RegionView {
  const std::byte* base = nullptr;
  std::size_t len = 0;
  std::uint8_t priority = 0;
};

class RegionRegistry {
 public:
  /// Fixed slot capacity: the slot array never reallocates, so the heater
  /// can scan it without synchronising with growth.
  explicit RegionRegistry(std::size_t max_regions = 4096);

  RegionRegistry(const RegionRegistry&) = delete;
  RegionRegistry& operator=(const RegionRegistry&) = delete;

  /// Register [base, base+len) at `priority` (0 = most important).
  /// Returns a slot handle. Throws std::runtime_error when the registry
  /// is full.
  std::size_t register_region(const void* base, std::size_t len,
                              std::uint8_t priority = 0);

  /// Tombstone a slot. The memory must stay readable (see header comment).
  void unregister_region(std::size_t handle);

  /// Read slot `i` consistently; returns false if the slot is tombstoned
  /// or was being mutated too persistently to snapshot.
  bool snapshot(std::size_t i, RegionView& out) const;

  /// Upper bound of slots ever used (heater scan range).
  std::size_t slot_high_water() const {
    return high_water_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t live_regions() const {
    return live_.load(std::memory_order_relaxed);
  }
  std::size_t live_bytes() const;

 private:
  struct Slot {
    std::atomic<std::uint32_t> version{0};  // seqlock: odd = write in progress
    // Payload fields are atomics, stored with release and loaded with
    // acquire: a seqlock reader races with the writer by design, and those
    // orders keep each payload access between the version reads and writes
    // that bracket it. Plain fields here would be a data race under the C++
    // memory model (and ThreadSanitizer).
    std::atomic<const std::byte*> base{nullptr};
    std::atomic<std::size_t> len{0};
    std::atomic<std::uint8_t> priority{0};
    std::atomic<bool> live{false};
  };

  /// Seqlock write of one slot; writers serialize on mutate_lock_.
  void write_slot(Slot& s, const void* base, std::size_t len,
                  std::uint8_t priority, bool live) REQUIRES(mutate_lock_);

  // The slot array itself is written only under mutate_lock_, but slot
  // *payloads* are seqlock-protected atomics the heater reads lock-free,
  // so `slots_` cannot be GUARDED_BY without outlawing those reads; the
  // seqlock-payload contract is enforced structurally by semperm_analyze
  // (`seqlock-payload` on Slot).
  std::vector<Slot> slots_;
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> live_{0};
  std::vector<std::size_t> free_slots_ GUARDED_BY(mutate_lock_);
  SpinLock mutate_lock_;
};

}  // namespace semperm::hotcache
