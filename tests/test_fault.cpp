// Unit tests of the deterministic fault-injection plane: spec parsing,
// roll purity, decision semantics, schedules, and the wire-accounting
// arithmetic. Everything here works in every build configuration, like
// the injection sites themselves.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace semperm::fault {
namespace {

TEST(FaultPlan, DefaultIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.any_active());
  EXPECT_FALSE(plan.network_active());
  FaultInjector inj(plan);
  const auto d = inj.decide(0, 1, 1, 0);
  EXPECT_FALSE(d.drop || d.duplicate || d.reorder || d.delay_ns != 0);
}

TEST(FaultPlan, ParseRatesAndKnobs) {
  const auto plan = FaultPlan::parse(
      "drop=0.05,dup=0.01,reorder=0.02,delay=0.03,stall=0.1,seed=1234,"
      "max-attempts=8,delay-ns=500000");
  EXPECT_DOUBLE_EQ(plan.site(FaultSite::kNetDrop).probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.site(FaultSite::kNetDuplicate).probability, 0.01);
  EXPECT_DOUBLE_EQ(plan.site(FaultSite::kNetReorder).probability, 0.02);
  EXPECT_DOUBLE_EQ(plan.site(FaultSite::kNetDelay).probability, 0.03);
  EXPECT_DOUBLE_EQ(plan.site(FaultSite::kHeaterStall).probability, 0.1);
  EXPECT_EQ(plan.seed, 1234u);
  EXPECT_EQ(plan.max_drop_attempts, 8u);
  EXPECT_EQ(plan.delay_spike_ns, 500000u);
  EXPECT_TRUE(plan.any_active());
  EXPECT_TRUE(plan.network_active());
}

TEST(FaultPlan, ParseOneShotAndBurst) {
  const auto plan = FaultPlan::parse("drop@7,dup@100+16");
  EXPECT_EQ(plan.site(FaultSite::kNetDrop).one_shot_seq, 7u);
  EXPECT_EQ(plan.site(FaultSite::kNetDuplicate).burst_start, 100u);
  EXPECT_EQ(plan.site(FaultSite::kNetDuplicate).burst_len, 16u);
  EXPECT_TRUE(plan.network_active());
  // Stall-only plans are active but not network-active: the simmpi
  // transport must stay out of the wire path.
  const auto stall_only = FaultPlan::parse("stall=0.5");
  EXPECT_TRUE(stall_only.any_active());
  EXPECT_FALSE(stall_only.network_active());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const auto plan = FaultPlan::parse(
      "drop=0.05,dup@3,reorder@10+4,stall=0.25,seed=99,max-attempts=8,"
      "delay-ns=200000");
  const auto reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(plan.to_string(), reparsed.to_string());
  EXPECT_EQ(reparsed.seed, 99u);
  EXPECT_EQ(reparsed.site(FaultSite::kNetDuplicate).one_shot_seq, 3u);
  // The echoed spec is the replay recipe: non-default knobs round-trip.
  EXPECT_EQ(reparsed.max_drop_attempts, 8u);
  EXPECT_EQ(reparsed.delay_spike_ns, 200000u);
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(FaultPlan::parse("bogus=0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop@0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("seed=zzz"), std::invalid_argument);
}

TEST(FaultInjector, RollIsPureInItsTuple) {
  for (int i = 0; i < 64; ++i) {
    const auto seq = static_cast<std::uint64_t>(i * 37 + 1);
    const double a = FaultInjector::roll(42, FaultSite::kNetDrop, 0, 1, seq, 0);
    const double b = FaultInjector::roll(42, FaultSite::kNetDrop, 0, 1, seq, 0);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 1.0);
  }
  // Different seeds, sites, pairs, and attempts give unrelated rolls.
  const double base = FaultInjector::roll(42, FaultSite::kNetDrop, 0, 1, 5, 0);
  EXPECT_NE(base, FaultInjector::roll(43, FaultSite::kNetDrop, 0, 1, 5, 0));
  EXPECT_NE(base, FaultInjector::roll(42, FaultSite::kNetDuplicate, 0, 1, 5, 0));
  EXPECT_NE(base, FaultInjector::roll(42, FaultSite::kNetDrop, 1, 0, 5, 0));
  EXPECT_NE(base, FaultInjector::roll(42, FaultSite::kNetDrop, 0, 1, 5, 1));
}

TEST(FaultInjector, DecisionsAreReplayable) {
  const auto plan =
      FaultPlan::parse("drop=0.2,dup=0.2,reorder=0.2,delay=0.2,seed=7");
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    const auto da = a.decide(0, 1, seq, 0);
    const auto db = b.decide(0, 1, seq, 0);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.reorder, db.reorder);
    EXPECT_EQ(da.delay_ns, db.delay_ns);
  }
  EXPECT_EQ(a.stats().drops, b.stats().drops);
  EXPECT_EQ(a.stats().rolls, 500u);
  // A 20% rate over 500 frames fires well away from 0 and from always.
  EXPECT_GT(a.stats().drops, 25u);
  EXPECT_LT(a.stats().drops, 250u);
}

TEST(FaultInjector, OneShotFiresExactlyOnceOnFirstAttempt) {
  const auto plan = FaultPlan::parse("drop@7");
  FaultInjector inj(plan);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    const auto d = inj.decide(2, 3, seq, 0);
    EXPECT_EQ(d.drop, seq == 7) << seq;
  }
  // The retransmission of the shot frame (attempt 1) goes through.
  EXPECT_FALSE(inj.decide(2, 3, 7, 1).drop);
  EXPECT_EQ(inj.stats().drops, 1u);
}

TEST(FaultInjector, BurstCoversItsWindow) {
  const auto plan = FaultPlan::parse("drop@10+4,max-attempts=16");
  FaultInjector inj(plan);
  for (std::uint64_t seq = 1; seq <= 20; ++seq) {
    const bool in_burst = seq >= 10 && seq < 14;
    EXPECT_EQ(inj.decide(0, 1, seq, 0).drop, in_burst) << seq;
  }
}

TEST(FaultInjector, DropExcludesOtherFatesAndIsCapped) {
  // With every rate near-certain, a dropped attempt must not also
  // duplicate or hold — the frame never reached the far side.
  auto plan = FaultPlan::parse("drop=0.999,dup=0.999,reorder=0.999");
  plan.max_drop_attempts = 4;
  FaultInjector inj(plan);
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    std::uint32_t attempt = 0;
    FaultDecision d = inj.decide(0, 1, seq, attempt);
    while (d.drop) {
      EXPECT_FALSE(d.duplicate || d.reorder || d.delay_ns != 0);
      ASSERT_LT(attempt, plan.max_drop_attempts);
      d = inj.decide(0, 1, seq, ++attempt);
    }
    // Every attempt chain terminates inside the cap.
    EXPECT_LT(attempt, plan.max_drop_attempts);
  }
  // At a 99.9% drop rate, the livelock guard must have fired.
  EXPECT_GE(inj.stats().forced_deliveries, 1u);
}

TEST(FaultInjector, ReorderTakesPrecedenceOverDelay) {
  const auto plan = FaultPlan::parse("reorder=0.999,delay=0.999");
  FaultInjector inj(plan);
  int reorders = 0;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    const auto d = inj.decide(0, 1, seq, 0);
    if (d.reorder) {
      ++reorders;
      EXPECT_EQ(d.delay_ns, 0u);  // a frame is held for one reason at a time
    }
  }
  EXPECT_GT(reorders, 0);
}

TEST(FaultInjector, AckRollsAreIndependentOfDataRolls) {
  const auto plan = FaultPlan::parse("drop=0.5,seed=11");
  FaultInjector inj(plan);
  // Same pair, same numeric seq: the ack plane (attempt = ~0) must not
  // mirror the data plane's pattern.
  int differs = 0;
  for (std::uint64_t n = 1; n <= 64; ++n) {
    const bool data_dropped = inj.decide(0, 1, n, 0).drop;
    if (inj.drop_ack(0, 1, n) != data_dropped) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjector, HeaterStallUsesItsOwnSite) {
  const auto plan = FaultPlan::parse("stall=0.999,delay-ns=123456");
  FaultInjector inj(plan);
  std::uint64_t stalls = 0;
  for (std::uint64_t pass = 1; pass <= 8; ++pass) {
    const std::uint64_t ns = inj.heater_stall_ns(pass);
    if (ns != 0) {
      ++stalls;
      EXPECT_EQ(ns, 123456u);
    }
  }
  EXPECT_GT(stalls, 0u);
  EXPECT_EQ(inj.stats().heater_stalls, stalls);
  FaultInjector clean{FaultPlan{}};
  EXPECT_EQ(clean.heater_stall_ns(1), 0u);
}

TEST(WireStats, ConservationArithmetic) {
  WireStats w;
  w.frames_sent = 100;
  w.retransmissions = 7;
  w.dup_copies = 3;
  w.wire_drops = 7;
  w.dup_suppressed = 3;
  w.delivered = 100;
  EXPECT_EQ(w.transmissions(), 110u);
  EXPECT_EQ(w.accounted(), 110u);
  EXPECT_TRUE(w.conserved());
  w.wire_drops = 8;  // one transmission unaccounted for
  EXPECT_FALSE(w.conserved());

  WireStats other;
  other.frames_sent = 10;
  other.delivered = 10;
  w.merge(other);
  EXPECT_EQ(w.frames_sent, 110u);
  EXPECT_EQ(w.delivered, 110u);
}

TEST(FaultSiteNames, MatchSpecKeys) {
  EXPECT_STREQ(site_name(FaultSite::kNetDrop), "drop");
  EXPECT_STREQ(site_name(FaultSite::kNetDuplicate), "dup");
  EXPECT_STREQ(site_name(FaultSite::kNetReorder), "reorder");
  EXPECT_STREQ(site_name(FaultSite::kNetDelay), "delay");
  EXPECT_STREQ(site_name(FaultSite::kHeaterStall), "stall");
}

}  // namespace
}  // namespace semperm::fault
