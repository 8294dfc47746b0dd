// semperm/resilience/degradation.hpp
//
// The degradation ladder (DESIGN.md §17.3): one deterministic L0..L3
// state machine, `Ladder`, and the steering pipeline's adapter over it,
// `DegradationManager`. The native heater's adapter is HeaterWatchdog
// (heater_watchdog.hpp). The pipeline's levers, applied by the caller
// for the level check_once returns:
//
//   L0 full service    — admission at its configured margin, full rule
//                        walks, all heater regions heated.
//   L1 strict admission — the admission filter's strict margin raises the
//                        bar a miss must clear to displace a live flow.
//   L2 essential only  — the miss path walks only the essential head of
//                        the rule table (rule-walk budget cap) and the
//                        heater keeps only essential regions warm.
//   L3 shed new flows  — table misses are shed outright (probe-only
//                        lookups, no install, no walk); residents are
//                        still served.
//
// Ladder::check_once(now, health) is a pure function of the explicit
// clock and one observation, so simulated callers pass simulated cycles,
// native callers pass wall time, and tests pass synthetic integers. It
// holds no lock, metric or lever: adapters observe, apply levers, and
// publish metrics and traces from the step it returns.
//
// Recovery after L3 is probation-based: after de-escalating from the top
// level, the ladder is on probation for `probation_checks` checks during
// which a single unhealthy check snaps straight back to L3 (no streak
// grace) — a system that just collapsed must re-prove itself.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/trace.hpp"

namespace semperm::obs {
class Counter;
class Gauge;
}  // namespace semperm::obs

namespace semperm::resilience {

inline constexpr int kLevels = 4;  // L0..L3

struct DegradationStats {
  int level = 0;
  std::uint64_t checks = 0;
  std::uint64_t unhealthy_checks = 0;
  std::uint64_t escalations = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t probation_reescalations = 0;
  /// Time accumulated at each level, in the caller's check_once clock
  /// units (simulated cycles for run_steering, ns for the native heater).
  std::uint64_t dwell[kLevels] = {0, 0, 0, 0};
};

/// What one check observed.
enum class Health : std::uint8_t {
  kUnobserved,  // nothing to judge: accrues dwell, moves no streak
  kHealthy,
  kUnhealthy,
};

/// One check's outcome, for the adapter's levers, metrics and traces.
struct LadderStep {
  int from = 0;  // level in force before the check
  int to = 0;    // level in force after the check
  /// Clock units this check attributed to `from` (0 on the first check
  /// and whenever the clock did not advance).
  std::uint64_t dwell = 0;
  bool snapped_back = false;  // an unhealthy check on probation
};

class Ladder {
 public:
  /// Escalate one level after `degrade_after_checks` consecutive
  /// unhealthy checks, de-escalate one after `recover_after_checks`
  /// consecutive healthy ones; both must be nonzero.
  Ladder(std::uint32_t degrade_after_checks,
         std::uint32_t recover_after_checks, std::uint32_t probation_checks);

  LadderStep check_once(std::uint64_t now, Health health);

  /// Back to L0 with no streaks, no probation and no previous check; the
  /// counters and dwell keep their totals.
  void reset();

  bool on_probation() const { return probation_left_ > 0; }
  const DegradationStats& stats() const { return stats_; }

 private:
  std::uint32_t degrade_after_checks_;
  std::uint32_t recover_after_checks_;
  std::uint32_t probation_checks_;
  std::uint32_t unhealthy_streak_ = 0;
  std::uint32_t healthy_streak_ = 0;
  std::uint32_t probation_left_ = 0;
  std::uint64_t last_check_ = 0;
  DegradationStats stats_;
};

struct DegradationConfig {
  /// Consecutive unhealthy checks before escalating one level.
  std::uint32_t degrade_after_checks = 2;
  /// Consecutive healthy checks before de-escalating one level.
  std::uint32_t recover_after_checks = 4;
  /// Probation length (checks) after leaving the top level.
  std::uint32_t probation_checks = 4;
  /// Miss-rate EWMA at or above this is unhealthy.
  double miss_rate_high = 0.75;
};

/// One check's observations, gathered by the caller.
struct HealthSignals {
  std::size_t queue_depth = 0;
  std::size_t queue_high_watermark = 0;  // 0 = no queue signal
  double miss_rate_ewma = 0.0;
};

/// The steering pipeline's adapter: queue depth and miss-rate EWMA in,
/// `resilience.*` registry metrics and `resilience/ladder` traces out.
class DegradationManager {
 public:
  explicit DegradationManager(DegradationConfig cfg);

  DegradationManager(const DegradationManager&) = delete;
  DegradationManager& operator=(const DegradationManager&) = delete;

  /// One policy step against the caller's clock. Returns the level in
  /// force after the step.
  int check_once(std::uint64_t now, const HealthSignals& signals);

  const DegradationStats& stats() const { return ladder_.stats(); }

 private:
  double miss_rate_high_;
  Ladder ladder_;

  // Process-lifetime registry handles (cached: check_once may run at
  // epoch cadence and the registry map lookup is mutex-guarded).
  obs::Gauge& level_metric_;
  obs::Counter& escalations_metric_;
  obs::Counter& recoveries_metric_;
  SEMPERM_TRACE_ONLY(std::uint16_t track_ = 0;)
};

}  // namespace semperm::resilience
