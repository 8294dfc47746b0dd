#include "resilience/heater_watchdog.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace semperm::resilience {

namespace {

std::uint64_t steady_now_ns() {
  // The watchdog's liveness signal is native wall time by design: it
  // protects a *native* heater thread against preemption/starvation, and
  // all policy is factored into check_once(now_ns), which tests drive
  // with synthetic clocks (the deterministic surface).
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now()  // semperm-analyze: allow(determinism-wall-clock) -- native watchdog clock; policy is the pure check_once(now_ns), tests inject synthetic time
              .time_since_epoch())
          .count());
}

}  // namespace

Ladder watchdog_ladder(const WatchdogConfig& config) {
  return Ladder(config.degrade_after_checks, config.recover_after_checks,
                /*probation_checks=*/0);
}

HeaterWatchdog::HeaterWatchdog(hotcache::HeaterThread& heater,
                               WatchdogConfig config)
    : heater_(heater),
      config_(config),
      configured_budget_(heater.effective_budget()),
      ladder_(watchdog_ladder(config)) {}

HeaterWatchdog::~HeaterWatchdog() { stop(); }

void HeaterWatchdog::start() {
  if (running()) return;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { thread_main(); });
}

void HeaterWatchdog::stop() {
  if (!running()) return;
  {
    MutexLock lock(wake_mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

Health HeaterWatchdog::observe_locked(std::uint64_t now_ns) const {
  if (!heater_.running()) return Health::kUnobserved;
  // A heater the application paused is in a legitimate compute phase —
  // not our business. One we paused at L3 produces no passes, so
  // staleness could never clear: count its checks as healthy.
  if (heater_.paused())
    return paused_by_watchdog_ ? Health::kHealthy : Health::kUnobserved;
  const std::uint64_t last = heater_.last_pass_end_ns();
  const std::uint64_t ref = last != 0 ? last : baseline_ns_;
  const bool stale =
      now_ns > ref && now_ns - ref > config_.stale_threshold_ns;
  return stale ? Health::kUnhealthy : Health::kHealthy;
}

void HeaterWatchdog::apply_level_locked(int level) {
  // Each level includes the levers of the ones below it.
  const std::size_t degraded_budget =
      configured_budget_ != 0
          ? (configured_budget_ / 2 != 0 ? configured_budget_ / 2 : 1)
          : config_.fallback_degraded_budget;
  heater_.set_budget_override(level >= 1 ? degraded_budget : 0);
  heater_.set_priority_ceiling(level >= 2 ? config_.essential_ceiling
                                          : std::uint8_t{255});
  if (level >= 3) {
    if (!heater_.paused()) heater_.pause();
    paused_by_watchdog_ = true;
  } else if (paused_by_watchdog_) {
    heater_.resume();
    paused_by_watchdog_ = false;
  }
  obs::MetricsRegistry::global().gauge("heater.degradation_level").set(level);
}

int HeaterWatchdog::check_once(std::uint64_t now_ns) {
  MutexLock lock(policy_mutex_);
  if (baseline_ns_ == 0) baseline_ns_ = now_ns;
  const LadderStep step = ladder_.check_once(now_ns, observe_locked(now_ns));
  if (step.dwell != 0) {
    // Surfaced in every bench --json report via the embedded registry.
    static const char* const kDwellNames[kLevels] = {
        "heater.watchdog.dwell_ns_l0", "heater.watchdog.dwell_ns_l1",
        "heater.watchdog.dwell_ns_l2", "heater.watchdog.dwell_ns_l3"};
    obs::MetricsRegistry::global()
        .gauge(kDwellNames[step.from])
        .set(static_cast<double>(ladder_.stats().dwell[step.from]));
  }
  if (step.to > step.from) {
    obs::MetricsRegistry::global().counter("heater.watchdog.degradations")
        .add(1);
    apply_level_locked(step.to);
    SEMPERM_TRACE_INSTANT(obs::Category::kHeater, "watchdog_degrade", 0,
                          static_cast<std::uint64_t>(step.to), 0.0);
  } else if (step.to < step.from) {
    obs::MetricsRegistry::global().counter("heater.watchdog.recoveries")
        .add(1);
    apply_level_locked(step.to);
    // Fresh staleness reference after the resume.
    if (step.from == kLevels - 1) baseline_ns_ = now_ns;
    SEMPERM_TRACE_INSTANT(obs::Category::kHeater, "watchdog_recover", 0,
                          static_cast<std::uint64_t>(step.to), 0.0);
  }
  return step.to;
}

void HeaterWatchdog::reset() {
  MutexLock lock(policy_mutex_);
  ladder_.reset();
  apply_level_locked(0);
  baseline_ns_ = 0;
}

DegradationStats HeaterWatchdog::stats() const {
  MutexLock lock(policy_mutex_);
  return ladder_.stats();
}

void HeaterWatchdog::thread_main() {
  SEMPERM_TRACE_THREAD_NAME("heater_watchdog");
  while (!stop_requested_.load(std::memory_order_acquire)) {
    check_once(steady_now_ns());
    UniqueLock lock(wake_mutex_);
    wake_cv_.wait_for_ns(lock, config_.check_period_ns, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
  }
}

}  // namespace semperm::resilience
