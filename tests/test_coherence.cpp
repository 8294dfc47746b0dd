// MESI unit tests for coherence::CoherentHierarchy: state transitions,
// exact per-access costs (snoop / intervention latencies from the
// ArchProfile), inclusive-LLC back-invalidation with dirty writeback,
// the KNL no-LLC cache-to-cache path, and heater-stream interactions.
//
// Lines used by different sub-tests are spaced far apart so the per-core
// hardware prefetchers (next-line, adjacent-pair) never pull one test's
// lines into another test's core.

#include <gtest/gtest.h>

#include <stdexcept>

#include "cachesim/arch.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "coherence/mesi.hpp"

namespace semperm::coherence {
namespace {

using cachesim::sandy_bridge;

TEST(MesiTest, StateNames) {
  EXPECT_STREQ(to_string(MesiState::kInvalid), "I");
  EXPECT_STREQ(to_string(MesiState::kShared), "S");
  EXPECT_STREQ(to_string(MesiState::kExclusive), "E");
  EXPECT_STREQ(to_string(MesiState::kModified), "M");
}

TEST(CoherentHierarchyTest, RejectsZeroAndTooManyCores) {
  EXPECT_THROW(CoherentHierarchy(sandy_bridge(), 0), std::logic_error);
  EXPECT_THROW(CoherentHierarchy(sandy_bridge(), 65), std::logic_error);
}

TEST(CoherentHierarchyTest, FirstReadFillsExclusive) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x100;
  const Cycles c = h.access_line(0, line, /*write=*/false);
  EXPECT_EQ(c, h.arch().dram_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kExclusive);
  EXPECT_TRUE(h.privately_resident(0, line));
  EXPECT_EQ(h.state(1, line), MesiState::kInvalid);
  // Nobody else holds anything: no protocol traffic.
  EXPECT_EQ(h.coherence_stats().total_events(), 0u);
  // Subsequent read is an L1 hit.
  EXPECT_EQ(h.access_line(0, line, false), h.arch().l1.hit_latency);
}

TEST(CoherentHierarchyTest, RemoteReadDowngradesExclusiveToShared) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x900;
  h.access_line(0, line, false);  // core 0: E
  // Core 1's read hits the shared LLC; core 0's Exclusive copy must
  // observe the read (snoop) and downgrade.
  const Cycles c = h.access_line(1, line, false);
  EXPECT_EQ(c, h.arch().l3.hit_latency + h.arch().snoop_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kShared);
  EXPECT_EQ(h.state(1, line), MesiState::kShared);
  EXPECT_EQ(h.coherence_stats().clean_downgrades, 1u);
  EXPECT_EQ(h.coherence_stats().snoops, 1u);
  // A third read from either core costs no protocol traffic (the
  // directory filters snoops between Shared copies).
  h.access_line(0, line, false);
  EXPECT_EQ(h.coherence_stats().snoops, 1u);
}

TEST(CoherentHierarchyTest, WriteToSharedUpgradesAndInvalidates) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x1200;
  h.access_line(0, line, false);
  h.access_line(1, line, false);  // both Shared now
  ASSERT_EQ(h.state(0, line), MesiState::kShared);
  // Core 0 writes its Shared private copy: L1 hit + ownership upgrade.
  const Cycles c = h.access_line(0, line, /*write=*/true);
  EXPECT_EQ(c, h.arch().l1.hit_latency + h.arch().snoop_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kModified);
  EXPECT_EQ(h.state(1, line), MesiState::kInvalid);
  EXPECT_FALSE(h.privately_resident(1, line));
  EXPECT_EQ(h.coherence_stats().upgrades, 1u);
  EXPECT_EQ(h.coherence_stats().invalidations, 1u);
}

TEST(CoherentHierarchyTest, RemoteReadOfModifiedIsIntervention) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x2000;
  h.access_line(0, line, /*write=*/true);  // core 0: M
  ASSERT_EQ(h.state(0, line), MesiState::kModified);
  const Cycles c = h.access_line(1, line, false);
  EXPECT_EQ(c, h.arch().intervention_latency);
  // The owner wrote back and downgraded; the reader shares.
  EXPECT_EQ(h.state(0, line), MesiState::kShared);
  EXPECT_EQ(h.state(1, line), MesiState::kShared);
  EXPECT_EQ(h.coherence_stats().interventions, 1u);
  EXPECT_EQ(h.coherence_stats().dirty_writebacks, 1u);
  // The written-back data now lives in the LLC.
  ASSERT_NE(h.llc(), nullptr);
  EXPECT_TRUE(h.llc()->contains(line));
  EXPECT_TRUE(h.llc()->line_dirty(line));
}

TEST(CoherentHierarchyTest, RemoteWriteOfModifiedInvalidatesOwner) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x2800;
  h.access_line(0, line, /*write=*/true);  // core 0: M
  const Cycles c = h.access_line(1, line, /*write=*/true);
  EXPECT_EQ(c, h.arch().intervention_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kInvalid);
  EXPECT_FALSE(h.privately_resident(0, line));
  EXPECT_EQ(h.state(1, line), MesiState::kModified);
  EXPECT_EQ(h.coherence_stats().interventions, 1u);
  EXPECT_EQ(h.coherence_stats().invalidations, 1u);
}

TEST(CoherentHierarchyTest, WriteMissSnoopsOutSharedCopies) {
  CoherentHierarchy h(sandy_bridge(), 3);
  const Addr line = 0x3000;
  h.access_line(0, line, false);
  h.access_line(1, line, false);  // cores 0 and 1 Shared
  // Core 2 write-misses; the LLC serves but both copies must die.
  const Cycles c = h.access_line(2, line, /*write=*/true);
  EXPECT_EQ(c, h.arch().l3.hit_latency + h.arch().snoop_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kInvalid);
  EXPECT_EQ(h.state(1, line), MesiState::kInvalid);
  EXPECT_EQ(h.state(2, line), MesiState::kModified);
  EXPECT_EQ(h.coherence_stats().invalidations, 2u);
}

TEST(CoherentHierarchyTest, InclusiveLlcEvictionBackInvalidatesDirtyLine) {
  CoherentHierarchy h(sandy_bridge(), 2);
  ASSERT_NE(h.llc(), nullptr);
  const std::size_t llc_sets = h.llc()->set_count();
  const unsigned llc_ways = h.llc()->associativity();

  // Core 0 dirties a line; it sits Modified in core 0's privates with a
  // clean shadow copy in the inclusive LLC.
  const Addr victim = 0x5;
  h.access_line(0, victim, /*write=*/true);
  ASSERT_EQ(h.state(0, victim), MesiState::kModified);

  // Core 1 streams conflict lines through the victim's LLC set. Core 0
  // never touches the LLC again (its private hits stay private), so the
  // victim ages to LRU and is evicted once the set fills — while core 0
  // still holds it Modified. Inclusion forces a back-invalidation and the
  // dirty data drains to DRAM.
  const auto before = h.coherence_stats();
  for (unsigned k = 1; k <= llc_ways + 4; ++k)
    h.access_line(1, victim + k * llc_sets, false);

  EXPECT_FALSE(h.llc()->contains(victim));
  EXPECT_EQ(h.state(0, victim), MesiState::kInvalid);
  EXPECT_FALSE(h.privately_resident(0, victim));
  const auto& after = h.coherence_stats();
  EXPECT_GE(after.back_invalidations, before.back_invalidations + 1);
  EXPECT_GE(after.dirty_writebacks, before.dirty_writebacks + 1);
}

TEST(CoherentHierarchyTest, KnlRemoteCleanSupplyWithoutLlc) {
  CoherentHierarchy h(cachesim::knl(), 2);
  EXPECT_EQ(h.llc(), nullptr);
  const Addr line = 0x4000;
  EXPECT_EQ(h.access_line(0, line, false), h.arch().dram_latency);
  ASSERT_EQ(h.state(0, line), MesiState::kExclusive);
  // No shared LLC: the remote private copy is forwarded across the mesh.
  const Cycles c = h.access_line(1, line, false);
  EXPECT_EQ(c, h.arch().intervention_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kShared);
  EXPECT_EQ(h.state(1, line), MesiState::kShared);
  EXPECT_EQ(h.coherence_stats().clean_downgrades, 1u);
  // Heater streaming is meaningless without an LLC to occupy.
  EXPECT_THROW(h.heater_touch_line(0, line), std::logic_error);
}

TEST(CoherentHierarchyTest, KnlRemoteModifiedIntervention) {
  CoherentHierarchy h(cachesim::knl(), 2);
  const Addr line = 0x4800;
  h.access_line(0, line, /*write=*/true);
  const Cycles c = h.access_line(1, line, false);
  EXPECT_EQ(c, h.arch().intervention_latency);
  EXPECT_EQ(h.state(0, line), MesiState::kShared);
  EXPECT_EQ(h.coherence_stats().interventions, 1u);
  EXPECT_EQ(h.coherence_stats().dirty_writebacks, 1u);
}

TEST(CoherentHierarchyTest, HeaterTouchTracksLlcOccupancy) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr base = 0x10000;
  const std::size_t n = 100;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = h.heater_touch_line(1, base + i);
    EXPECT_TRUE(t.cold);
    EXPECT_EQ(t.cycles, h.arch().dram_latency);
  }
  // Second pass is warm: pure LLC-speed re-reads.
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = h.heater_touch_line(1, base + i);
    EXPECT_FALSE(t.cold);
    EXPECT_EQ(t.cycles, h.arch().l3.hit_latency);
  }
  auto occ = h.llc_occupancy();
  EXPECT_EQ(occ.heater_lines, n);
  EXPECT_EQ(occ.capacity_lines, h.llc()->size_bytes() / kCacheLine);
  EXPECT_GT(occ.heater_fraction(), 0.0);
  // A demand hit on a heated line hands ownership back to the app.
  h.access_line(0, base, false);
  EXPECT_EQ(h.llc_occupancy().heater_lines, n - 1);
  // The heater streams into the LLC only: no private residency.
  EXPECT_FALSE(h.privately_resident(1, base + 1));
  EXPECT_EQ(h.state(1, base + 1), MesiState::kInvalid);
}

TEST(CoherentHierarchyTest, HeaterTouchIntervenesOnModifiedAppLine) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x20000;
  h.access_line(0, line, /*write=*/true);  // app core: M
  const auto t = h.heater_touch_line(1, line);
  EXPECT_EQ(t.cycles, h.arch().intervention_latency);
  EXPECT_FALSE(t.cold);
  // The app keeps a (now Shared) copy; the dirty data reached the LLC.
  EXPECT_EQ(h.state(0, line), MesiState::kShared);
  EXPECT_EQ(h.coherence_stats().interventions, 1u);
  EXPECT_TRUE(h.llc()->line_dirty(line));
}

TEST(CoherentHierarchyTest, PolluteWrecksOwnCoreAndRepairsInclusion) {
  CoherentHierarchy h(sandy_bridge(), 2);
  // Core 0 builds private working set.
  const Addr base = 0x30000;
  for (Addr i = 0; i < 64; ++i) h.access_line(0, base + i, i % 4 == 0);
  ASSERT_TRUE(h.privately_resident(0, base));
  // A compute phase on core 1 bigger than the LLC displaces everything
  // from the shared level; inclusion back-invalidates core 0's copies.
  h.pollute(1, 2 * h.llc()->size_bytes());
  EXPECT_FALSE(h.privately_resident(0, base));
  EXPECT_EQ(h.state(0, base), MesiState::kInvalid);
  EXPECT_GT(h.coherence_stats().back_invalidations, 0u);
  // Polluting a core also clears that core's own private stack.
  h.access_line(1, base + 0x1000, false);
  ASSERT_EQ(h.state(1, base + 0x1000), MesiState::kExclusive);
  h.pollute(1, 4096);
  EXPECT_EQ(h.state(1, base + 0x1000), MesiState::kInvalid);
  EXPECT_FALSE(h.privately_resident(1, base + 0x1000));
}

TEST(CoherentHierarchyTest, CoreStatsExposePerLevelSummaries) {
  CoherentHierarchy h(sandy_bridge(), 2);
  for (Addr i = 0; i < 256; ++i) h.access_line(0, 0x40000 + i, false);
  const auto& stats = h.core_stats(0);
  ASSERT_EQ(stats.levels.size(), 3u);
  EXPECT_EQ(stats.levels[0].name, "L1");
  EXPECT_EQ(stats.levels[1].name, "L2");
  EXPECT_EQ(stats.levels[2].name, "LLC");
  EXPECT_GT(stats.lines_touched, 0u);
  // The sequential walk arms the prefetchers: some fills must be
  // attributed to them.
  EXPECT_GT(stats.levels[0].prefetch_fills + stats.levels[1].prefetch_fills,
            0u);
  EXPECT_GT(h.profile().total_cycles(), 0u);
  h.reset_stats();
  EXPECT_EQ(h.core_stats(0).lines_touched, 0u);
  EXPECT_EQ(h.coherence_stats().total_events(), 0u);
  const obs::ProfSnapshot p = h.profile();
  for (std::size_t s = 0; s < obs::kProfSiteCount; ++s)
    EXPECT_EQ(p.ops[s] + p.cycles[s], 0u)
        << obs::prof_site_label(static_cast<obs::ProfSite>(s));
}

TEST(CoherentHierarchyTest, ReportMentionsCoresAndCoherence) {
  CoherentHierarchy h(sandy_bridge(), 2);
  h.access_line(0, 1, true);
  h.access_line(1, 1, true);
  const std::string r = h.report();
  EXPECT_NE(r.find("coherent hierarchy, 2 cores"), std::string::npos);
  EXPECT_NE(r.find("coherence:"), std::string::npos);
}

}  // namespace
}  // namespace semperm::coherence
