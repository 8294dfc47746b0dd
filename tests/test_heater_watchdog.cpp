// The heater watchdog (DESIGN.md §12.3): deterministic ladder walks
// driven by synthetic clocks, seeded stall detection through the
// fault-injection seam, resuming the self-paused heater at L2, the
// region-priority degradation lever, and a race test of
// pause()/resume()/watchdog policy against concurrent registry mutation
// (run it under TSan to validate the synchronisation).

#include "resilience/heater_watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "hotcache/region_registry.hpp"
#include "obs/metrics.hpp"

namespace semperm::resilience {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using hotcache::HeaterConfig;
using hotcache::HeaterThread;
using hotcache::RegionRegistry;
using hotcache::RegionView;

/// A heater that has completed exactly one pass and then gone dormant
/// (one-hour period), so tests control staleness purely through the
/// synthetic `now` they feed check_once().
struct DormantHeater {
  RegionRegistry reg;
  std::vector<std::byte> essential;
  std::vector<std::byte> optional;
  HeaterThread heater;

  DormantHeater()
      : essential(1 << 14), optional(1 << 14), heater(reg, dormant_config()) {
    reg.register_region(essential.data(), essential.size(), /*priority=*/0);
    reg.register_region(optional.data(), optional.size(), /*priority=*/5);
    heater.start();
    while (heater.last_pass_end_ns() == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ~DormantHeater() { heater.stop(); }

  static HeaterConfig dormant_config() {
    HeaterConfig cfg;
    cfg.period_ns = 3'600'000'000'000ULL;  // one pass, then dormant
    return cfg;
  }
};

TEST(HeaterWatchdog, DegradationLadderWalksUpUnderStaleness) {
  DormantHeater dh;
  WatchdogConfig wc;
  wc.stale_threshold_ns = 1'000'000;
  wc.degrade_after_checks = 2;
  wc.recover_after_checks = 3;
  HeaterWatchdog dog(dh.heater, wc);

  const std::uint64_t stale_now =
      dh.heater.last_pass_end_ns() + wc.stale_threshold_ns + 1;
  // L0 -> L1: budget halves (fallback, since the configured budget is
  // 0 = unlimited).
  EXPECT_EQ(dog.check_once(stale_now), 0);
  EXPECT_EQ(dog.check_once(stale_now), 1);
  EXPECT_EQ(dh.heater.effective_budget(), wc.fallback_degraded_budget);
  // L1 -> L2: only essential (priority <= 0) regions stay heated.
  EXPECT_EQ(dog.check_once(stale_now), 1);
  EXPECT_EQ(dog.check_once(stale_now), 2);
  EXPECT_EQ(dh.heater.priority_ceiling(), wc.essential_ceiling);
  // L2 -> L3: the heater is self-paused.
  EXPECT_EQ(dog.check_once(stale_now), 2);
  EXPECT_EQ(dog.check_once(stale_now), 3);
  EXPECT_TRUE(dh.heater.paused());

  const auto s = dog.stats();
  EXPECT_EQ(s.level, 3);
  EXPECT_EQ(s.escalations, 3u);
  EXPECT_EQ(s.checks, 6u);
  EXPECT_EQ(s.unhealthy_checks, 6u);
}

TEST(HeaterWatchdog, RecoversByProbationThenWalksDown) {
  DormantHeater dh;
  WatchdogConfig wc;
  wc.stale_threshold_ns = 1'000'000;
  wc.degrade_after_checks = 1;  // every stale check escalates
  wc.recover_after_checks = 2;
  HeaterWatchdog dog(dh.heater, wc);

  const std::uint64_t stale_now =
      dh.heater.last_pass_end_ns() + wc.stale_threshold_ns + 1;
  EXPECT_EQ(dog.check_once(stale_now), 1);
  EXPECT_EQ(dog.check_once(stale_now), 2);
  EXPECT_EQ(dog.check_once(stale_now), 3);
  ASSERT_TRUE(dh.heater.paused());

  // L3 probation: a paused heater emits no passes, so after the recovery
  // streak the watchdog resumes it at L2 and lets staleness decide.
  EXPECT_EQ(dog.check_once(stale_now), 3);
  EXPECT_EQ(dog.check_once(stale_now), 2);
  EXPECT_FALSE(dh.heater.paused());

  // A fresh pass (the resumed heater would produce one; drive it
  // synchronously here) plus healthy checks walk the ladder back to L0.
  dh.heater.run_single_pass();
  auto healthy_now = [&] { return dh.heater.last_pass_end_ns() + 1; };
  EXPECT_EQ(dog.check_once(healthy_now()), 2);
  EXPECT_EQ(dog.check_once(healthy_now()), 1);
  EXPECT_EQ(dog.check_once(healthy_now()), 1);
  EXPECT_EQ(dog.check_once(healthy_now()), 0);
  EXPECT_EQ(dh.heater.effective_budget(), 0u);        // budget restored
  EXPECT_EQ(dh.heater.priority_ceiling(), 255);       // ceiling restored
  EXPECT_EQ(dog.stats().recoveries, 3u);  // L3->L2 probation, L2->L1, L1->L0
}

TEST(HeaterWatchdog, DwellAccountingAndRecoveryMetrics) {
  DormantHeater dh;
  WatchdogConfig wc;
  wc.stale_threshold_ns = 1'000'000;
  wc.degrade_after_checks = 1;  // every stale check escalates
  wc.recover_after_checks = 2;
  HeaterWatchdog dog(dh.heater, wc);
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t recoveries_before =
      reg.counter("heater.watchdog.recoveries").value();
  const std::uint64_t degradations_before =
      reg.counter("heater.watchdog.degradations").value();

  // Dwell is accumulated in the caller's clock units between consecutive
  // checks, attributed to the level in force across each interval.
  const std::uint64_t base =
      dh.heater.last_pass_end_ns() + wc.stale_threshold_ns + 1;
  EXPECT_EQ(dog.check_once(base), 1);        // first check: no interval yet
  EXPECT_EQ(dog.check_once(base + 10), 2);   // 10 units at L1
  EXPECT_EQ(dog.check_once(base + 30), 3);   // 20 units at L2
  // L3 probation: two checks (20 + 40 units at L3) resume at L2.
  EXPECT_EQ(dog.check_once(base + 50), 3);
  EXPECT_EQ(dog.check_once(base + 90), 2);

  const auto s = dog.stats();
  EXPECT_EQ(s.dwell[0], 0u);  // escalated away within the first check
  EXPECT_EQ(s.dwell[1], 10u);
  EXPECT_EQ(s.dwell[2], 20u);
  EXPECT_EQ(s.dwell[3], 60u);
  // PR 10 satellite: recoveries and degradations surface in the process
  // registry (the bench --json funnel embeds it in every report).
  EXPECT_EQ(reg.counter("heater.watchdog.recoveries").value(),
            recoveries_before + s.recoveries);
  EXPECT_EQ(reg.counter("heater.watchdog.degradations").value(),
            degradations_before + s.escalations);
  EXPECT_EQ(s.recoveries, 1u);  // the probation resume
  EXPECT_EQ(s.escalations, 3u);
  // The dwell gauges mirror the per-level accumulators.
  EXPECT_EQ(reg.gauge("heater.watchdog.dwell_ns_l3").value(), 60.0);
}

TEST(HeaterWatchdog, ExternalPauseIsNotTheWatchdogsBusiness) {
  DormantHeater dh;
  WatchdogConfig wc;
  wc.stale_threshold_ns = 1'000'000;
  wc.degrade_after_checks = 1;
  HeaterWatchdog dog(dh.heater, wc);
  dh.heater.pause();  // application compute phase
  const std::uint64_t stale_now =
      dh.heater.last_pass_end_ns() + wc.stale_threshold_ns + 1;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dog.check_once(stale_now), 0);
  EXPECT_EQ(dog.stats().escalations, 0u);
  dh.heater.resume();
}

TEST(HeaterWatchdog, ResetRestoresEverything) {
  DormantHeater dh;
  WatchdogConfig wc;
  wc.stale_threshold_ns = 1'000'000;
  wc.degrade_after_checks = 1;
  HeaterWatchdog dog(dh.heater, wc);
  const std::uint64_t stale_now =
      dh.heater.last_pass_end_ns() + wc.stale_threshold_ns + 1;
  dog.check_once(stale_now);
  dog.check_once(stale_now);
  dog.check_once(stale_now);
  ASSERT_EQ(dog.level(), 3);
  dog.reset();
  EXPECT_EQ(dog.level(), 0);
  EXPECT_FALSE(dh.heater.paused());
  EXPECT_EQ(dh.heater.effective_budget(), 0u);
  EXPECT_EQ(dh.heater.priority_ceiling(), 255);
}

TEST(HeaterWatchdog, SeededStallIsDetectedAndDegrades) {
  RegionRegistry reg;
  std::vector<std::byte> arena(1 << 16);
  reg.register_region(arena.data(), arena.size());
  HeaterConfig hc;
  hc.period_ns = 1'000'000;  // 1 ms cadence when healthy
  HeaterThread heater(reg, hc);
  // Seeded violation: virtually every pass stalls 30 ms against a 5 ms
  // staleness threshold — the watchdog must observe and degrade.
  const auto plan = FaultPlan::parse("stall=0.999,delay-ns=30000000,seed=3");
  FaultInjector inj(plan);
  std::uint64_t pass_no = 0;
  heater.set_stall_hook([&] { return inj.heater_stall_ns(++pass_no); });
  heater.start();

  WatchdogConfig wc;
  wc.check_period_ns = 1'000'000;
  wc.stale_threshold_ns = 5'000'000;
  HeaterWatchdog dog(heater, wc);
  dog.start();
  bool degraded = false;
  for (int i = 0; i < 400 && !degraded; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    degraded = dog.level() >= 1;
  }
  dog.stop();
  heater.stop();
  EXPECT_TRUE(degraded);
  EXPECT_GT(heater.stats().stalled_passes, 0u);
  EXPECT_GT(dog.stats().unhealthy_checks, 0u);
}

TEST(HeaterWatchdog, PauseResumeRacesRegistryMutation) {
  // Stress the synchronisation: the application pauses/resumes while
  // another thread churns the registry and the watchdog applies policy —
  // all against a free-running heater. TSan validates; natively this is
  // a smoke test that nothing deadlocks or crashes, and that the heater
  // still runs passes once the race is over.
  RegionRegistry reg;
  std::vector<std::byte> stable(1 << 12);
  std::vector<std::byte> churn(1 << 12);
  reg.register_region(stable.data(), stable.size());
  HeaterConfig hc;
  hc.period_ns = 1'000;  // effectively continuous
  HeaterThread heater(reg, hc);
  heater.start();
  WatchdogConfig wc;
  wc.stale_threshold_ns = 1;  // aggressive: policy changes constantly
  wc.degrade_after_checks = 1;
  wc.recover_after_checks = 1;
  HeaterWatchdog dog(heater, wc);

  std::atomic<bool> go{true};
  std::thread pauser([&] {
    for (int i = 0; i < 1500; ++i) {
      heater.pause();
      std::this_thread::yield();
      heater.resume();
    }
    go.store(false);
  });
  std::thread registrar([&] {
    while (go.load()) {
      const std::size_t h =
          reg.register_region(churn.data(), churn.size(), /*priority=*/3);
      std::this_thread::yield();
      reg.unregister_region(h);
    }
  });
  std::uint64_t fake_now = 1;
  while (go.load()) {
    dog.check_once(fake_now);        // alternates stale...
    dog.check_once(fake_now + 100);  // ...and escalating clocks
    fake_now += 1'000'000'000ULL;
    std::this_thread::yield();
  }
  pauser.join();
  registrar.join();
  dog.reset();
  // The reset leaves the heater unpaused. Wait (bounded) for a pass after
  // it rather than rely on the scheduler having run one during the race.
  const std::uint64_t at_reset = heater.stats().passes;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (heater.stats().passes <= at_reset &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  const std::uint64_t passes = heater.stats().passes;
  heater.stop();
  EXPECT_GT(passes, at_reset);
}

TEST(RegionPriority, SnapshotCarriesPriorityAndCeilingSkips) {
  RegionRegistry reg;
  std::vector<std::byte> essential(1 << 16), optional(1 << 16);
  reg.register_region(essential.data(), essential.size(), /*priority=*/0);
  reg.register_region(optional.data(), optional.size(), /*priority=*/7);
  RegionView v;
  ASSERT_TRUE(reg.snapshot(0, v));
  EXPECT_EQ(v.priority, 0);
  ASSERT_TRUE(reg.snapshot(1, v));
  EXPECT_EQ(v.priority, 7);

  HeaterThread heater(reg, HeaterConfig{});
  heater.set_priority_ceiling(0);
  heater.run_single_pass();
  auto s = heater.stats();
  EXPECT_EQ(s.skipped_low_priority, 1u);
  EXPECT_EQ(s.bytes_touched, essential.size());  // optional went cold
  heater.set_priority_ceiling(255);
  heater.run_single_pass();
  s = heater.stats();
  EXPECT_EQ(s.bytes_touched, 2 * essential.size() + optional.size());
  EXPECT_EQ(s.skipped_low_priority, 1u);  // no new skips once restored
}

TEST(RegionPriority, BudgetOverrideBoundsThePass) {
  RegionRegistry reg;
  std::vector<std::byte> big(1 << 16);
  reg.register_region(big.data(), big.size());
  HeaterConfig cfg;
  cfg.max_bytes_per_pass = 4096;
  HeaterThread heater(reg, cfg);
  EXPECT_EQ(heater.effective_budget(), 4096u);
  heater.set_budget_override(1024);
  EXPECT_EQ(heater.effective_budget(), 1024u);
  heater.run_single_pass();
  EXPECT_EQ(heater.stats().bytes_touched, 1024u);
  heater.set_budget_override(0);
  EXPECT_EQ(heater.effective_budget(), 4096u);
}

}  // namespace
}  // namespace semperm::resilience
