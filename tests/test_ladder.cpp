// The degradation ladder (DESIGN.md §17.3) driven directly: streaks,
// probation after leaving L3, exact per-level dwell, checks that observe
// nothing, and a seeded differential test against the two ladders it
// replaced (tests/reference_ladder.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "reference_ladder.hpp"
#include "resilience/degradation.hpp"
#include "resilience/heater_watchdog.hpp"

namespace semperm::resilience {
namespace {

using testing::HeaterObservation;

constexpr Health kBad = Health::kUnhealthy;
constexpr Health kGood = Health::kHealthy;

/// degrade after 2, recover after 3, probation 2.
Ladder fast_ladder() { return Ladder(2, 3, 2); }

/// Drive the ladder to L3 with unhealthy checks, returning the clock.
std::uint64_t escalate_to_top(Ladder& ladder, std::uint64_t now) {
  while (ladder.stats().level < kLevels - 1) ladder.check_once(++now, kBad);
  return now;
}

TEST(Ladder, RecoversAndAccountsDwell) {
  Ladder ladder = fast_ladder();
  // Two unhealthy checks at clocks 1,2 -> L1; two more at 3,4 -> L2.
  std::uint64_t now = 0;
  for (int i = 0; i < 4; ++i) ladder.check_once(++now, kBad);
  ASSERT_EQ(ladder.stats().level, 2);
  // Three healthy checks de-escalate one level.
  for (int i = 0; i < 3; ++i) ladder.check_once(++now, kGood);
  EXPECT_EQ(ladder.stats().level, 1);
  for (int i = 0; i < 3; ++i) ladder.check_once(++now, kGood);
  EXPECT_EQ(ladder.stats().level, 0);
  EXPECT_FALSE(ladder.on_probation());  // probation only arms leaving L3

  const DegradationStats& s = ladder.stats();
  EXPECT_EQ(s.checks, 10u);
  EXPECT_EQ(s.unhealthy_checks, 4u);
  EXPECT_EQ(s.escalations, 2u);
  EXPECT_EQ(s.recoveries, 2u);
  EXPECT_EQ(s.probation_reescalations, 0u);
  // Each check attributes the interval since the previous one to the
  // level in force before it decides; the first check has no interval.
  // The intervals ending at clocks 2..10 belong to L0, L1, L1, L2, L2,
  // L2, L1, L1, L1.
  EXPECT_EQ(s.dwell[0], 1u);
  EXPECT_EQ(s.dwell[1], 5u);
  EXPECT_EQ(s.dwell[2], 3u);
  EXPECT_EQ(s.dwell[3], 0u);
}

TEST(Ladder, ProbationExpiresAtExactBoundary) {
  // probation_checks = 2, degrade_after = 2: after the probation window
  // closes, an unhealthy check must NOT snap to L3 — the normal streak
  // logic is back in force.
  Ladder ladder = fast_ladder();
  std::uint64_t now = escalate_to_top(ladder, 0);
  // Three healthy checks leave L3 -> L2, arming probation.
  for (int i = 0; i < 3; ++i) ladder.check_once(++now, kGood);
  ASSERT_EQ(ladder.stats().level, 2);
  ASSERT_TRUE(ladder.on_probation());
  // Exactly probation_checks healthy checks close the window...
  for (int i = 0; i < 2; ++i) ladder.check_once(++now, kGood);
  EXPECT_FALSE(ladder.on_probation());
  // ...so the next unhealthy check starts a streak instead of snapping.
  EXPECT_EQ(ladder.check_once(++now, kBad).to, 2);
  EXPECT_EQ(ladder.check_once(++now, kBad).to, 3);  // normal streak
  EXPECT_EQ(ladder.stats().probation_reescalations, 0u);
}

TEST(Ladder, ReEscalatesDuringProbation) {
  Ladder ladder = fast_ladder();
  std::uint64_t now = escalate_to_top(ladder, 0);
  const std::uint64_t escalations_to_top = ladder.stats().escalations;
  for (int i = 0; i < 3; ++i) ladder.check_once(++now, kGood);
  ASSERT_EQ(ladder.stats().level, 2);
  // One healthy check inside the window keeps probation open...
  ladder.check_once(++now, kGood);
  ASSERT_TRUE(ladder.on_probation());
  // ...and a single unhealthy check snaps straight back to L3, no
  // streak grace: a system that just collapsed must re-prove itself.
  const LadderStep step = ladder.check_once(++now, kBad);
  EXPECT_EQ(step.to, 3);
  EXPECT_TRUE(step.snapped_back);
  EXPECT_EQ(ladder.stats().probation_reescalations, 1u);
  EXPECT_EQ(ladder.stats().escalations, escalations_to_top + 1);
  EXPECT_FALSE(ladder.on_probation());  // probation is an L3-exit state
}

TEST(Ladder, ZeroProbationNeverSnapsBack) {
  Ladder ladder(2, 3, /*probation_checks=*/0);
  std::uint64_t now = escalate_to_top(ladder, 0);
  for (int i = 0; i < 3; ++i) ladder.check_once(++now, kGood);
  ASSERT_EQ(ladder.stats().level, 2);
  EXPECT_FALSE(ladder.on_probation());
  // One unhealthy check right after leaving L3 only starts a streak.
  EXPECT_EQ(ladder.check_once(++now, kBad).to, 2);
  EXPECT_EQ(ladder.check_once(++now, kBad).to, 3);
  EXPECT_EQ(ladder.stats().probation_reescalations, 0u);
}

TEST(Ladder, UnobservedCheckAccruesDwellAndMovesNoStreak) {
  Ladder ladder = fast_ladder();
  std::uint64_t now = 0;
  ladder.check_once(++now, kBad);
  // Checks that observe nothing neither break nor extend a streak...
  for (int i = 0; i < 5; ++i) {
    const LadderStep step = ladder.check_once(++now, Health::kUnobserved);
    EXPECT_EQ(step.to, 0);
    EXPECT_EQ(step.dwell, 1u);
  }
  const LadderStep step = ladder.check_once(++now, kBad);
  EXPECT_EQ(step.from, 0);
  EXPECT_EQ(step.to, 1);
  // ...healthy or unhealthy.
  ladder.check_once(++now, kGood);
  ladder.check_once(++now, kGood);
  ladder.check_once(++now, Health::kUnobserved);
  EXPECT_EQ(ladder.check_once(++now, kGood).to, 0);

  const DegradationStats& s = ladder.stats();
  EXPECT_EQ(s.checks, 11u);
  EXPECT_EQ(s.unhealthy_checks, 2u);
  EXPECT_EQ(s.dwell[0], 6u);  // clocks 1..7
  EXPECT_EQ(s.dwell[1], 4u);  // clocks 7..11
}

TEST(Ladder, ResetReturnsToFullService) {
  Ladder ladder = fast_ladder();
  std::uint64_t now = escalate_to_top(ladder, 0);
  for (int i = 0; i < 3; ++i) ladder.check_once(++now, kGood);
  ASSERT_TRUE(ladder.on_probation());
  ladder.reset();
  EXPECT_EQ(ladder.stats().level, 0);
  EXPECT_FALSE(ladder.on_probation());
  EXPECT_EQ(ladder.stats().escalations, 3u);  // totals survive a reset
}

// ---------------------------------------------------------------------
// Differential test against the replaced ladders: 400 seeds of 2000
// checks each, with clock steps of 0-3, compared after every check.

constexpr std::uint64_t kSeeds = 400;
constexpr int kChecks = 2000;

/// Every DegradationStats field, in declaration order.
auto fields(const DegradationStats& s) {
  return std::tuple(s.level, s.checks, s.unhealthy_checks, s.escalations,
                    s.recoveries, s.probation_reescalations, s.dwell[0],
                    s.dwell[1], s.dwell[2], s.dwell[3]);
}

/// The watchdog's signal as its adapter maps it (DESIGN.md §12.3).
Health watchdog_health(HeaterObservation obs) {
  switch (obs) {
    case HeaterObservation::kSelfPaused:
    case HeaterObservation::kFreshPass:
      return Health::kHealthy;
    case HeaterObservation::kStalePass:
      return Health::kUnhealthy;
    default:
      return Health::kUnobserved;
  }
}

/// Only the watchdog pauses the heater at L3, and the application never
/// resumes it there: that case is the one accepted divergence (§17.3).
HeaterObservation draw_observation(Rng& rng, int level, double p_stale) {
  if (level == kLevels - 1) {
    return rng.below(5) == 0 ? HeaterObservation::kStopped
                             : HeaterObservation::kSelfPaused;
  }
  const std::uint64_t r = rng.below(20);
  if (r == 0) return HeaterObservation::kStopped;
  if (r <= 2) return HeaterObservation::kAppPaused;
  return rng.chance(p_stale) ? HeaterObservation::kStalePass
                             : HeaterObservation::kFreshPass;
}

TEST(Ladder, MatchesReplacedLadders) {
  std::uint64_t snap_backs = 0;
  std::uint64_t watchdog_recoveries = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    WatchdogConfig wc;
    wc.degrade_after_checks = static_cast<std::uint32_t>(rng.between(1, 3));
    wc.recover_after_checks = static_cast<std::uint32_t>(rng.between(1, 4));
    const auto probation = static_cast<std::uint32_t>(rng.between(0, 4));
    Ladder pipeline(wc.degrade_after_checks, wc.recover_after_checks,
                    probation);
    testing::ReferencePipelineLadder pipeline_ref(
        wc.degrade_after_checks, wc.recover_after_checks, probation);
    Ladder watchdog = watchdog_ladder(wc);
    testing::ReferenceWatchdogLadder watchdog_ref(wc.degrade_after_checks,
                                                  wc.recover_after_checks);
    std::uint64_t now = 0;
    double p_bad = 0.5;
    for (int i = 0; i < kChecks; ++i) {
      const auto where = [&] {
        return "{degrade " + std::to_string(wc.degrade_after_checks) +
               ", recover " + std::to_string(wc.recover_after_checks) +
               ", pipeline probation " + std::to_string(probation) +
               "} seed " + std::to_string(seed) + " check " +
               std::to_string(i);
      };
      // Phases of one bias, so streaks long enough to reach L3 occur.
      if (rng.below(8) == 0) p_bad = rng.uniform();
      now += rng.below(4);
      const bool bad = rng.chance(p_bad);
      ASSERT_EQ(pipeline.check_once(now, bad ? kBad : kGood).to,
                pipeline_ref.check_once(now, bad))
          << "pipeline " << where();
      const HeaterObservation obs =
          draw_observation(rng, watchdog_ref.stats().level, p_bad);
      ASSERT_EQ(watchdog.check_once(now, watchdog_health(obs)).to,
                watchdog_ref.check_once(now, obs))
          << "watchdog " << where();
      ASSERT_EQ(fields(pipeline.stats()), fields(pipeline_ref.stats()))
          << "pipeline " << where();
      ASSERT_EQ(pipeline.on_probation(), pipeline_ref.on_probation())
          << "pipeline " << where();
      ASSERT_EQ(fields(watchdog.stats()), fields(watchdog_ref.stats()))
          << "watchdog " << where();
    }
    snap_backs += pipeline_ref.stats().probation_reescalations;
    watchdog_recoveries += watchdog_ref.stats().recoveries;
  }
  // The sequences reach the snap-back and the watchdog's resume.
  EXPECT_GT(snap_backs, 10000u);
  EXPECT_GT(watchdog_recoveries, 50000u);
}

}  // namespace
}  // namespace semperm::resilience
