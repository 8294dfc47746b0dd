#include "resilience/degradation.hpp"

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace semperm::resilience {

Ladder::Ladder(std::uint32_t degrade_after_checks,
               std::uint32_t recover_after_checks,
               std::uint32_t probation_checks)
    : degrade_after_checks_(degrade_after_checks),
      recover_after_checks_(recover_after_checks),
      probation_checks_(probation_checks) {
  SEMPERM_ASSERT_MSG(degrade_after_checks > 0 && recover_after_checks > 0,
                     "streak thresholds must be nonzero");
}

LadderStep Ladder::check_once(std::uint64_t now, Health health) {
  const int lvl = stats_.level;
  LadderStep step;
  step.from = lvl;
  ++stats_.checks;
  if (last_check_ != 0 && now > last_check_) step.dwell = now - last_check_;
  stats_.dwell[lvl] += step.dwell;
  last_check_ = now;

  if (health == Health::kUnhealthy) {
    ++stats_.unhealthy_checks;
    healthy_streak_ = 0;
    if (probation_left_ > 0) {
      // A system that just climbed down from the top level gets no streak
      // grace: one unhealthy check on probation snaps straight back.
      probation_left_ = 0;
      unhealthy_streak_ = 0;
      ++stats_.probation_reescalations;
      ++stats_.escalations;
      stats_.level = kLevels - 1;
      step.snapped_back = true;
    } else if (++unhealthy_streak_ >= degrade_after_checks_) {
      unhealthy_streak_ = 0;
      if (lvl < kLevels - 1) {
        ++stats_.escalations;
        stats_.level = lvl + 1;
      }
    }
  } else if (health == Health::kHealthy) {
    unhealthy_streak_ = 0;
    if (probation_left_ > 0) --probation_left_;
    if (++healthy_streak_ >= recover_after_checks_) {
      healthy_streak_ = 0;
      if (lvl > 0) {
        ++stats_.recoveries;
        if (lvl == kLevels - 1) probation_left_ = probation_checks_;
        stats_.level = lvl - 1;
      }
    }
  }
  step.to = stats_.level;
  return step;
}

void Ladder::reset() {
  stats_.level = 0;
  unhealthy_streak_ = 0;
  healthy_streak_ = 0;
  probation_left_ = 0;
  last_check_ = 0;
}

DegradationManager::DegradationManager(DegradationConfig cfg)
    : miss_rate_high_(cfg.miss_rate_high),
      ladder_(cfg.degrade_after_checks, cfg.recover_after_checks,
              cfg.probation_checks),
      level_metric_(
          obs::MetricsRegistry::global().gauge("resilience.degradation_level")),
      escalations_metric_(
          obs::MetricsRegistry::global().counter("resilience.escalations")),
      recoveries_metric_(
          obs::MetricsRegistry::global().counter("resilience.recoveries")) {
  level_metric_.set(0);
  SEMPERM_TRACE_ONLY(track_ = obs::intern_track("resilience/ladder");)
}

int DegradationManager::check_once(std::uint64_t now,
                                   const HealthSignals& signals) {
  const bool queue_hot = signals.queue_high_watermark != 0 &&
                         signals.queue_depth >= signals.queue_high_watermark;
  const bool misses_hot = signals.miss_rate_ewma >= miss_rate_high_;
  const LadderStep step = ladder_.check_once(
      now, queue_hot || misses_hot ? Health::kUnhealthy : Health::kHealthy);
  if (step.to == step.from) return step.to;

  level_metric_.set(step.to);
  if (step.to > step.from) {
    escalations_metric_.add(1);
    SEMPERM_TRACE_INSTANT(obs::Category::kResilience, "degrade", track_,
                          static_cast<std::uint64_t>(step.to),
                          step.snapped_back ? 1.0 : 0.0);
  } else {
    recoveries_metric_.add(1);
    SEMPERM_TRACE_INSTANT(obs::Category::kResilience, "recover", track_,
                          static_cast<std::uint64_t>(step.to),
                          ladder_.on_probation() ? 1.0 : 0.0);
  }
  return step.to;
}

}  // namespace semperm::resilience
