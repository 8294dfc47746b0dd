// semperm/resilience/heater_watchdog.hpp
//
// Resilience companion to the heater (DESIGN.md §12.3): a watchdog that
// detects a lagging heater — passes not completing on schedule because
// the heater core is preempted, starved, or stalled by fault injection —
// and degrades the heating service gracefully instead of letting a
// silently cold cache masquerade as a hot one.
//
// It is the native heater's adapter over the degradation Ladder
// (degradation.hpp, DESIGN.md §17.3). Its levers, each level including
// the ones below it:
//   L0 healthy   — configured budget, all priorities heated.
//   L1 reduced   — per-pass byte budget halved: shorter passes are more
//                  likely to complete inside the period.
//   L2 essential — additionally, only priority-0 ("essential") regions
//                  are heated; low-priority regions are allowed to cool.
//   L3 paused    — the heater is self-paused entirely: a heater that
//                  cannot keep up only adds interference (paper §3.2
//                  challenge 3), so stop pretending.
// Its signal: a stale pass is unhealthy and a fresh one healthy. A paused
// heater produces no passes, so a heater the watchdog paused counts as
// healthy: after the recovery streak the watchdog resumes it at L2 and
// lets staleness decide from there. A stopped heater, or one the
// application paused, is not observed. The ladder runs with no probation.
//
// Determinism: all policy lives in check_once(now_ns), a pure function of
// the observed heater state and the explicit `now` — tests drive it
// directly with synthetic clocks. start() merely runs check_once on a
// background thread against the steady clock.
//
// The watchdog is plain code compiled in every build configuration (like
// obs::MetricsRegistry). A fault plan's stall site, installed through
// HeaterThread::set_stall_hook, makes it fire on demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "hotcache/heater_thread.hpp"
#include "resilience/degradation.hpp"

namespace semperm::resilience {

struct WatchdogConfig {
  /// How often the background thread samples heater liveness.
  std::uint64_t check_period_ns = 1'000'000;  // 1 ms
  /// A pass older than this (relative to `now`) counts as stale. Must
  /// comfortably exceed the heater period plus one pass duration.
  std::uint64_t stale_threshold_ns = 5'000'000;  // 5 ms
  /// Consecutive stale checks before escalating one level.
  std::uint32_t degrade_after_checks = 2;
  /// Consecutive healthy checks before de-escalating one level (and the
  /// self-paused checks at L3 before the heater is resumed).
  std::uint32_t recover_after_checks = 4;
  /// Priority ceiling applied at L2: regions with priority above this
  /// are skipped while degraded.
  std::uint8_t essential_ceiling = 0;
  /// L1 budget when the heater's configured budget is 0 (= unlimited):
  /// "half of unlimited" needs a concrete number.
  std::size_t fallback_degraded_budget = 1u << 20;
};

/// The watchdog's ladder: the configured streaks and no probation.
Ladder watchdog_ladder(const WatchdogConfig& config);

class HeaterWatchdog {
 public:
  /// The heater must outlive the watchdog. The heater's *configured*
  /// budget is captured here, so construct after configuring the heater.
  HeaterWatchdog(hotcache::HeaterThread& heater, WatchdogConfig config);
  ~HeaterWatchdog();

  HeaterWatchdog(const HeaterWatchdog&) = delete;
  HeaterWatchdog& operator=(const HeaterWatchdog&) = delete;

  /// Start/stop the background checking thread. stop() leaves the
  /// current degradation level applied (call reset() to undo).
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One deterministic policy step against the caller's clock. Returns
  /// the level in force after the step. Thread-safe (serialized).
  int check_once(std::uint64_t now_ns);

  /// Force the ladder back to L0 and restore the heater's configured
  /// budget/ceiling (and resume it if the watchdog paused it).
  void reset();

  /// Dwell is in check_once clock units: ns from the background thread,
  /// synthetic units from tests.
  DegradationStats stats() const;
  int level() const { return stats().level; }

 private:
  void thread_main();
  Health observe_locked(std::uint64_t now_ns) const REQUIRES(policy_mutex_);
  /// Apply one ladder level's levers to the heater.
  void apply_level_locked(int level) REQUIRES(policy_mutex_);

  hotcache::HeaterThread& heater_;
  WatchdogConfig config_;
  std::size_t configured_budget_;  // heater budget captured at construction

  mutable Mutex policy_mutex_;  // serializes check_once/reset/stats
  Ladder ladder_ GUARDED_BY(policy_mutex_);
  // Staleness reference while no pass has completed; reset on resuming.
  std::uint64_t baseline_ns_ GUARDED_BY(policy_mutex_) = 0;
  bool paused_by_watchdog_ GUARDED_BY(policy_mutex_) = false;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  Mutex wake_mutex_;
  CondVar wake_cv_;
};

}  // namespace semperm::resilience
