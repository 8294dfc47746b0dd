// tests/reference_ladder.hpp
//
// The oracle for resilience::Ladder: DegradationManager::check_once and
// HeaterWatchdog::check_once as they were when each held its own ladder,
// without levers, metrics, locks or atomics. The watchdog's stale checks
// count as `unhealthy_checks` and its degradations as `escalations`. Do
// not "simplify" this file: its value is being the old implementation.
#pragma once

#include <cstdint>

#include "resilience/degradation.hpp"

namespace semperm::resilience::testing {

/// DegradationManager's ladder. The caller has already folded the health
/// signals (queue depth, miss-rate EWMA) into `unhealthy`.
class ReferencePipelineLadder {
 public:
  ReferencePipelineLadder(std::uint32_t degrade_after_checks,
                          std::uint32_t recover_after_checks,
                          std::uint32_t probation_checks)
      : degrade_after_checks_(degrade_after_checks),
        recover_after_checks_(recover_after_checks),
        probation_checks_(probation_checks) {}

  int check_once(std::uint64_t now, bool unhealthy) {
    ++s_.checks;
    if (last_check_ != 0 && now > last_check_)
      s_.dwell[s_.level] += now - last_check_;
    last_check_ = now;
    const int lvl = s_.level;
    if (unhealthy) {
      ++s_.unhealthy_checks;
      healthy_streak_ = 0;
      if (probation_left_ > 0) {
        probation_left_ = 0;
        unhealthy_streak_ = 0;
        ++s_.probation_reescalations;
        ++s_.escalations;
        s_.level = 3;
      } else if (++unhealthy_streak_ >= degrade_after_checks_) {
        unhealthy_streak_ = 0;
        if (lvl < 3) {
          ++s_.escalations;
          s_.level = lvl + 1;
        }
      }
    } else {
      unhealthy_streak_ = 0;
      if (probation_left_ > 0) --probation_left_;
      if (++healthy_streak_ >= recover_after_checks_) {
        healthy_streak_ = 0;
        if (lvl > 0) {
          ++s_.recoveries;
          if (lvl == 3) probation_left_ = probation_checks_;
          s_.level = lvl - 1;
        }
      }
    }
    return s_.level;
  }

  bool on_probation() const { return probation_left_ > 0; }
  const DegradationStats& stats() const { return s_; }

 private:
  std::uint32_t degrade_after_checks_;
  std::uint32_t recover_after_checks_;
  std::uint32_t probation_checks_;
  std::uint32_t unhealthy_streak_ = 0;
  std::uint32_t healthy_streak_ = 0;
  std::uint32_t probation_left_ = 0;
  std::uint64_t last_check_ = 0;
  DegradationStats s_;
};

/// What one watchdog check saw of the heater.
enum class HeaterObservation {
  kStopped,     // heater thread not running
  kAppPaused,   // paused by the application
  kSelfPaused,  // paused by the watchdog at L3
  kFreshPass,   // last pass within the staleness threshold
  kStalePass,   // last pass older than the threshold
};

/// HeaterWatchdog's ladder: no probation window, and at L3 a count of
/// self-paused checks of its own that resumes the heater at L2.
class ReferenceWatchdogLadder {
 public:
  ReferenceWatchdogLadder(std::uint32_t degrade_after_checks,
                          std::uint32_t recover_after_checks)
      : degrade_after_checks_(degrade_after_checks),
        recover_after_checks_(recover_after_checks) {}

  int check_once(std::uint64_t now_ns, HeaterObservation obs) {
    ++s_.checks;
    const int lvl = s_.level;
    if (last_check_ns_ != 0 && now_ns > last_check_ns_)
      s_.dwell[lvl] += now_ns - last_check_ns_;
    last_check_ns_ = now_ns;
    if (obs == HeaterObservation::kStopped) return lvl;
    if (obs == HeaterObservation::kAppPaused ||
        obs == HeaterObservation::kSelfPaused) {
      if (!paused_by_watchdog_) return lvl;
      if (++probation_checks_ >= recover_after_checks_) {
        ++s_.recoveries;
        apply_level(2);
        stale_streak_ = 0;
        healthy_streak_ = 0;
      }
      return s_.level;
    }
    if (obs == HeaterObservation::kStalePass) {
      ++s_.unhealthy_checks;
      healthy_streak_ = 0;
      if (++stale_streak_ >= degrade_after_checks_) {
        stale_streak_ = 0;
        if (lvl < 3) {
          ++s_.escalations;
          apply_level(lvl + 1);
        }
      }
    } else {
      stale_streak_ = 0;
      if (++healthy_streak_ >= recover_after_checks_) {
        healthy_streak_ = 0;
        if (lvl > 0) {
          ++s_.recoveries;
          apply_level(lvl - 1);
        }
      }
    }
    return s_.level;
  }

  const DegradationStats& stats() const { return s_; }

 private:
  void apply_level(int level) {
    if (level >= 3) {
      paused_by_watchdog_ = true;
      probation_checks_ = 0;
    } else {
      paused_by_watchdog_ = false;
    }
    s_.level = level;
  }

  std::uint32_t degrade_after_checks_;
  std::uint32_t recover_after_checks_;
  std::uint64_t last_check_ns_ = 0;
  std::uint32_t stale_streak_ = 0;
  std::uint32_t healthy_streak_ = 0;
  std::uint32_t probation_checks_ = 0;
  bool paused_by_watchdog_ = false;
  DegradationStats s_;
};

}  // namespace semperm::resilience::testing
