// Robustness-layer unit tests (DESIGN.md §17): the TinyLFU-style
// admission filter's sketch arithmetic, determinism, and aging; the
// watermark backpressure valve's hysteresis; and the degradation
// manager's signal mapping and registry metrics.

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hpp"
#include "resilience/admission.hpp"
#include "resilience/backpressure.hpp"
#include "resilience/degradation.hpp"

namespace semperm::resilience {
namespace {

AdmissionConfig tiny_sketch() {
  AdmissionConfig cfg;
  cfg.rows = 4;
  cfg.counters_log2 = 8;  // 256 counters/row: collisions unlikely for
  cfg.age_period = 1024;  // the handful of keys these tests use
  return cfg;
}

TEST(Admission, SketchCountsAndSaturates) {
  AdmissionFilter f(tiny_sketch());
  EXPECT_EQ(f.estimate(42), 0u);
  for (int i = 0; i < 5; ++i) f.record(42);
  // Count-min overestimates only: the estimate is >= the true count and
  // with 4 rows over 256 counters a single key is collision-free.
  EXPECT_EQ(f.estimate(42), 5u);
  EXPECT_EQ(f.estimate(43), 0u);
  for (int i = 0; i < 100; ++i) f.record(42);
  EXPECT_EQ(f.estimate(42), 15u);  // saturates at counter_max
  EXPECT_EQ(f.stats().records, 105u);
}

TEST(Admission, AgingHalvesEstimates) {
  AdmissionConfig cfg = tiny_sketch();
  cfg.age_period = 32;
  AdmissionFilter f(cfg);
  for (int i = 0; i < 10; ++i) f.record(7);
  ASSERT_EQ(f.estimate(7), 10u);
  // Pad to the aging boundary with a different key; the 32nd record
  // triggers the halving pass over every counter.
  for (int i = 0; i < 22; ++i) f.record(8);
  EXPECT_EQ(f.stats().agings, 1u);
  EXPECT_EQ(f.estimate(7), 5u);
  // Key 8 saturated at counter_max (15) before the boundary halved it.
  EXPECT_EQ(f.estimate(8), 7u);
}

TEST(Admission, PrefersFrequentCandidate) {
  AdmissionFilter f(tiny_sketch());
  for (int i = 0; i < 8; ++i) f.record(100);  // hot flow
  f.record(200);                              // one-hit wonder
  // A hot candidate displaces a cold victim; a one-hit wonder does not
  // displace a hot resident.
  EXPECT_TRUE(f.admit(/*candidate=*/100, /*victim=*/200));
  EXPECT_FALSE(f.admit(/*candidate=*/200, /*victim=*/100));
  // Equal-frequency churn is admitted (LRU's regime, margin 0).
  EXPECT_TRUE(f.admit(/*candidate=*/200, /*victim=*/201));
  EXPECT_EQ(f.stats().admits, 2u);
  EXPECT_EQ(f.stats().rejects, 1u);
}

TEST(Admission, StrictMarginRaisesTheBar) {
  AdmissionFilter f(tiny_sketch());
  for (int i = 0; i < 3; ++i) f.record(1);
  f.record(2);
  EXPECT_TRUE(f.admit(1, 2));  // 3 >= 1 + 0
  f.set_strict_margin(2);
  EXPECT_TRUE(f.admit(1, 2));  // 3 >= 1 + 2
  f.set_strict_margin(3);
  EXPECT_FALSE(f.admit(1, 2));  // 3 < 1 + 3
  // The L0 lever restores the permissive bar.
  f.set_strict_margin(0);
  EXPECT_TRUE(f.admit(1, 2));
}

TEST(Admission, SameSeedSameDecisions) {
  AdmissionConfig cfg = tiny_sketch();
  cfg.age_period = 64;
  AdmissionFilter a(cfg), b(cfg);
  // A seeded pseudo-trace of records and admit probes must produce
  // bit-identical decision streams on both filters.
  std::uint64_t x = 0x9e3779b9u;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t key = (x >> 33) % 97;
    a.record(key);
    b.record(key);
    if (i % 7 == 0) {
      EXPECT_EQ(a.admit(key, key + 1), b.admit(key, key + 1)) << i;
    }
  }
  EXPECT_EQ(a.stats().admits, b.stats().admits);
  EXPECT_EQ(a.stats().rejects, b.stats().rejects);
  EXPECT_EQ(a.stats().agings, b.stats().agings);

  AdmissionConfig other = cfg;
  other.seed ^= 1;
  AdmissionFilter c(other);
  for (int i = 0; i < 1000; ++i) c.record(i % 97);
  // Different seeds place keys in different counters; total records
  // still match (the stats contract is seed-independent).
  EXPECT_EQ(c.stats().records, 1000u);
}

TEST(Backpressure, HysteresisValve) {
  BackpressureValve v(/*high=*/8, /*low=*/2);
  EXPECT_FALSE(v.update(7));  // below high: no shed
  EXPECT_TRUE(v.update(8));   // reaches high: shed ON
  EXPECT_TRUE(v.update(5));   // between watermarks: stays ON (hysteresis)
  EXPECT_TRUE(v.update(3));
  EXPECT_FALSE(v.update(2));  // drains to low: shed OFF
  EXPECT_FALSE(v.update(7));  // below high again: still OFF
  EXPECT_TRUE(v.update(9));   // second window
  const BackpressureStats& s = v.stats();
  EXPECT_EQ(s.updates, 7u);
  EXPECT_EQ(s.shed_windows, 2u);
  EXPECT_EQ(s.peak_depth, 9u);
}

// ---------------------------------------------------------------------
// The pipeline's adapter over the degradation ladder: how its signals map
// to health, and what it publishes. The ladder itself is tests/test_ladder.

DegradationConfig fast_ladder() {
  DegradationConfig cfg;
  cfg.degrade_after_checks = 2;
  cfg.recover_after_checks = 3;
  cfg.probation_checks = 2;
  return cfg;
}

TEST(Degradation, EscalatesOnEachSignal) {
  const DegradationConfig cfg = fast_ladder();
  // Queue depth at the watermark.
  {
    DegradationManager mgr(cfg);
    HealthSignals s;
    s.queue_depth = 8;
    s.queue_high_watermark = 8;
    EXPECT_EQ(mgr.check_once(1, s), 0);
    EXPECT_EQ(mgr.check_once(2, s), 1);
  }
  // Miss-rate EWMA at the threshold.
  {
    DegradationManager mgr(cfg);
    HealthSignals s;
    s.miss_rate_ewma = cfg.miss_rate_high;
    EXPECT_EQ(mgr.check_once(1, s), 0);
    EXPECT_EQ(mgr.check_once(2, s), 1);
  }
  // A high watermark of 0 means "no queue signal", not "always over".
  {
    DegradationManager mgr(cfg);
    HealthSignals s;
    s.queue_depth = 1000;
    s.queue_high_watermark = 0;
    EXPECT_EQ(mgr.check_once(1, s), 0);
    EXPECT_EQ(mgr.check_once(2, s), 0);
    EXPECT_EQ(mgr.stats().unhealthy_checks, 0u);
  }
}

TEST(Degradation, PublishesLevelAndCountersToRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t escalations =
      reg.counter("resilience.escalations").value();
  const std::uint64_t recoveries = reg.counter("resilience.recoveries").value();
  DegradationManager mgr(fast_ladder());
  HealthSignals hot;
  hot.miss_rate_ewma = 1.0;
  for (std::uint64_t now = 1; now <= 4; ++now) mgr.check_once(now, hot);
  for (std::uint64_t now = 5; now <= 7; ++now) mgr.check_once(now, {});
  ASSERT_EQ(mgr.stats().level, 1);  // up two levels, down one
  EXPECT_EQ(reg.gauge("resilience.degradation_level").value(), 1.0);
  EXPECT_EQ(reg.counter("resilience.escalations").value(), escalations + 2);
  EXPECT_EQ(reg.counter("resilience.recoveries").value(), recoveries + 1);
}

}  // namespace
}  // namespace semperm::resilience
