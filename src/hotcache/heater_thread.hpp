// semperm/hotcache/heater_thread.hpp
//
// The real hot-caching heater (paper §3.2, Fig. 3): a thread that
// periodically walks the registered regions, reading the first four bytes
// of every cache line into a throwaway sum. Refreshing the lines' recency
// keeps them resident under (pseudo-)LRU eviction — "semi-permanent cache
// occupancy".
//
// The paper's three implementation challenges, and where they are handled:
//  1. placement — HeaterConfig::pin_cpu pins the heater to a core sharing
//     a cache level with the communication thread;
//  2. synchronisation — RegionRegistry (seqlock slots, tombstone reuse);
//  3. application interference — pause()/resume() lets a bulk-synchronous
//     application stop the heater during compute phases and re-arm it
//     before communication.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/mutex.hpp"
#include "hotcache/region_registry.hpp"

namespace semperm::hotcache {

struct HeaterConfig {
  /// Sleep between heating passes (the paper's periodicity knob — it
  /// controls the granularity of the induced temporal locality).
  std::uint64_t period_ns = 50'000;
  /// CPU to pin the heater to; -1 = unpinned.
  int pin_cpu = -1;
  /// Byte budget per pass; 0 = touch everything registered. Bounding the
  /// pass models a heater that cannot keep more than a cache's worth hot.
  std::size_t max_bytes_per_pass = 0;
};

struct HeaterStats {
  std::uint64_t passes = 0;
  std::uint64_t lines_touched = 0;
  std::uint64_t bytes_touched = 0;
  std::uint64_t stalled_passes = 0;        // pre-pass stall hook fired
  std::uint64_t skipped_low_priority = 0;  // regions skipped while degraded
  bool pinned = false;
};

class HeaterThread {
 public:
  /// The registry must outlive the heater.
  HeaterThread(RegionRegistry& registry, HeaterConfig config);
  ~HeaterThread();

  HeaterThread(const HeaterThread&) = delete;
  HeaterThread& operator=(const HeaterThread&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Cooperative interference mitigation: the application may pause the
  /// heater during compute phases.
  void pause();
  void resume();
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  /// Run exactly one heating pass on the *calling* thread (used by tests
  /// and by callers that drive heating explicitly at phase boundaries).
  void run_single_pass();

  // --- resilience surface (resilience/heater_watchdog) ----------------

  /// Steady-clock ns stamp of the last completed pass; 0 before the
  /// first pass. The watchdog's staleness signal.
  std::uint64_t last_pass_end_ns() const {
    return last_pass_end_ns_.load(std::memory_order_acquire);
  }

  /// Runtime override of the per-pass byte budget (degradation lever 1);
  /// 0 restores the configured budget.
  void set_budget_override(std::size_t bytes) {
    budget_override_.store(bytes, std::memory_order_release);
  }
  std::size_t effective_budget() const;

  /// Heat only regions with priority <= ceiling (degradation lever 2);
  /// default 255 heats everything.
  void set_priority_ceiling(std::uint8_t ceiling) {
    priority_ceiling_.store(ceiling, std::memory_order_release);
  }
  std::uint8_t priority_ceiling() const {
    return priority_ceiling_.load(std::memory_order_acquire);
  }

  /// Fault-injection seam: called at the top of every pass; a nonzero
  /// return stalls (sleeps) the pass for that many ns, modelling
  /// preemption/starvation. Set before start(); the heater thread reads
  /// it without synchronisation (publication happens-before via the
  /// thread launch in start()).
  void set_stall_hook(std::function<std::uint64_t()> hook) {
    stall_hook_ = std::move(hook);
  }

  HeaterStats stats() const;

  /// Touch every cache line of [base, base+len): read the first 4 bytes of
  /// each line into a discarded sum. Exposed for the heater
  /// micro-benchmark.
  static std::uint64_t touch(const std::byte* base, std::size_t len);

 private:
  void thread_main();

  RegionRegistry& registry_;
  HeaterConfig config_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  // stop_requested_/paused_ are atomics, but their *stores* still happen
  // under wake_mutex_ so the heater thread cannot miss a wakeup between
  // testing the flag and sleeping on wake_cv_ (the classic lost-notify
  // window).
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> paused_{false};
  mutable Mutex wake_mutex_;
  CondVar wake_cv_;

  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> lines_touched_{0};
  std::atomic<std::uint64_t> bytes_touched_{0};
  std::atomic<std::uint64_t> stalled_passes_{0};
  std::atomic<std::uint64_t> skipped_low_priority_{0};
  std::atomic<std::uint64_t> last_pass_end_ns_{0};
  std::atomic<std::size_t> budget_override_{0};
  std::atomic<std::uint8_t> priority_ceiling_{255};
  std::function<std::uint64_t()> stall_hook_;
  std::atomic<bool> pinned_{false};
};

}  // namespace semperm::hotcache
