#include "cachesim/hierarchy.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cachesim/arch.hpp"

namespace semperm::cachesim {
namespace {

/// A small, prefetcher-free profile for precise cost accounting.
ArchProfile quiet_arch() {
  ArchProfile a = sandy_bridge();
  a.prefetch.l1_next_line = false;
  a.prefetch.l2_adjacent_pair = false;
  a.prefetch.l2_streamer = false;
  return a;
}

TEST(Hierarchy, ColdAccessCostsDramLatency) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  EXPECT_EQ(h.access(0x1000, 4), arch.dram_latency);
  EXPECT_EQ(h.stats().dram_fetches, 1u);
}

TEST(Hierarchy, SecondAccessHitsL1) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  h.access(0x1000, 4);
  EXPECT_EQ(h.access(0x1000, 4), arch.l1.hit_latency);
}

TEST(Hierarchy, MultiLineAccessChargesPerLine) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  // 130 bytes starting at a line boundary span 3 lines.
  EXPECT_EQ(h.access(0x2000, 130), 3 * arch.dram_latency);
  EXPECT_EQ(h.stats().lines_touched, 3u);
}

TEST(Hierarchy, StraddlingAccessTouchesBothLines) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  EXPECT_EQ(h.access(0x2000 + kCacheLine - 2, 4), 2 * arch.dram_latency);
}

TEST(Hierarchy, FillPropagatesTowardCore) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  h.access(0x3000, 4);
  EXPECT_TRUE(h.resident(0, 0x3000));
  EXPECT_TRUE(h.resident(1, 0x3000));
  EXPECT_TRUE(h.resident(2, 0x3000));
}

TEST(Hierarchy, L1EvictionLeavesL2Serving) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  // Fill line A, then blow L1 with conflicting lines; A should then be
  // served from L2 at L2 latency.
  const Addr a = 0;
  h.access(a, 4);
  const std::size_t l1_lines = arch.l1.size_bytes / kCacheLine;
  for (std::size_t i = 1; i <= l1_lines + arch.l1.assoc; ++i)
    h.access(static_cast<Addr>(i) * kCacheLine, 4);
  EXPECT_FALSE(h.resident(0, a));
  EXPECT_EQ(h.access(a, 4), arch.l2.hit_latency);
}

TEST(Hierarchy, FlushAllEmptiesEveryLevel) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  h.access(0x4000, 4);
  h.flush_all();
  for (unsigned lvl = 0; lvl < h.level_count(); ++lvl)
    EXPECT_FALSE(h.resident(lvl, 0x4000));
  EXPECT_EQ(h.access(0x4000, 4), arch.dram_latency);
}

TEST(Hierarchy, PolluteWrecksPrivateCachesKeepsLlcMru) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  h.access(0x5000, 4);
  // A compute phase far smaller than the LLC.
  h.pollute(1024 * 1024);
  EXPECT_FALSE(h.resident(0, 0x5000));
  EXPECT_FALSE(h.resident(1, 0x5000));
  EXPECT_TRUE(h.resident(2, 0x5000));
}

TEST(Hierarchy, PolluteBeyondLlcEvictsEverything) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  h.access(0x5000, 4);
  h.pollute(2 * arch.l3.size_bytes);
  EXPECT_FALSE(h.resident(2, 0x5000));
}

TEST(Hierarchy, HeaterTouchFillsLlcOnly) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  const std::uint64_t cold = h.heater_touch(0x6000, 4 * kCacheLine);
  EXPECT_EQ(cold, 4u);
  EXPECT_TRUE(h.resident(2, 0x6000));
  EXPECT_FALSE(h.resident(0, 0x6000));
  // Re-touching warm lines fetches nothing.
  EXPECT_EQ(h.heater_touch(0x6000, 4 * kCacheLine), 0u);
  // And the demand access now costs L3 latency.
  EXPECT_EQ(h.access(0x6000, 4), arch.l3.hit_latency);
}

TEST(Hierarchy, NextLinePrefetchCoversSequentialWalk) {
  ArchProfile arch = sandy_bridge();  // prefetchers on
  Hierarchy h(arch);
  Cycles first = h.access_line(line_of(0x10000));
  EXPECT_EQ(first, arch.dram_latency);
  // The next line was prefetched into L1.
  Cycles second = h.access_line(line_of(0x10000) + 1);
  EXPECT_EQ(second, arch.l1.hit_latency);
}

TEST(Hierarchy, AdjacentPairCoversPairMate) {
  ArchProfile arch = sandy_bridge();
  arch.prefetch.l1_next_line = false;
  arch.prefetch.l2_streamer = false;
  Hierarchy h(arch);
  const Addr even_line = 0x40000 / kCacheLine;  // even line index
  h.access_line(even_line);
  EXPECT_EQ(h.access_line(even_line + 1), arch.l2.hit_latency);
}

TEST(Hierarchy, PrefetchlessWalkPaysFullLatency) {
  auto arch = quiet_arch();
  Hierarchy h(arch);
  Cycles total = 0;
  for (Addr l = 0; l < 8; ++l) total += h.access_line(0x1000 + l);
  EXPECT_EQ(total, 8 * arch.dram_latency);
}

TEST(Hierarchy, KnlHasNoL3) {
  Hierarchy h(knl());
  EXPECT_EQ(h.level_count(), 2u);
  h.access(0x100, 4);
  EXPECT_TRUE(h.resident(1, 0x100));
}

TEST(Hierarchy, ReportMentionsLevels) {
  Hierarchy h(quiet_arch());
  h.access(0x1, 1);
  const std::string r = h.report();
  EXPECT_NE(r.find("L1"), std::string::npos);
  EXPECT_NE(r.find("L3"), std::string::npos);
  EXPECT_NE(r.find("DRAM"), std::string::npos);
}

TEST(Hierarchy, ResetStatsClearsCounters) {
  Hierarchy h(quiet_arch());
  h.access(0x1, 1);
  h.reset_stats();
  EXPECT_EQ(h.stats().lines_touched, 0u);
  EXPECT_EQ(h.level(0).stats().demand_misses, 0u);
}

/// Batched and unbatched twins: `batched` sends each batch through
/// access(span), `twin` runs the same accesses one by one.
struct Twins {
  explicit Twins(const ArchProfile& arch) : batched(arch), twin(arch) {}

  void read_lines(Addr first, Addr last) {
    for (Addr line = first; line <= last; ++line) {
      batched.access(line * kCacheLine, 8);
      twin.access(line * kCacheLine, 8);
    }
  }

  void batch(const std::vector<DemandAccess>& accesses) {
    Cycles want = 0;
    for (const DemandAccess& a : accesses)
      want += twin.access(a.addr, a.bytes, a.write);
    EXPECT_EQ(batched.access(std::span<const DemandAccess>(accesses)), want);
    EXPECT_EQ(batched.stats().total_cycles, twin.stats().total_cycles);
    EXPECT_EQ(batched.stats().lines_touched, twin.stats().lines_touched);
    for (unsigned lvl = 0; lvl < batched.level_count(); ++lvl)
      EXPECT_EQ(batched.level(lvl).stats(), twin.level(lvl).stats())
          << batched.level(lvl).name();
  }

  Hierarchy batched;
  Hierarchy twin;
};

TEST(HierarchyBatch, AStreamerThatMovedKeepsABatchFromReplaying) {
  // Only the streamer runs (trigger 2, degree 4), so only its state can
  // tell this batch's runs apart.
  ArchProfile arch = sandy_bridge();
  arch.prefetch = PrefetchConfig{false, false, true, 2, 4};
  Twins t(arch);
  const Addr page = Addr{1} << 14;  // first line of a 4 KiB page
  t.read_lines(page + 40, page + 63);
  // An ascending run up to line 60: the stream has already requested the
  // page up to its edge, so lines 61 and 62 next request nothing.
  t.read_lines(page + 50, page + 60);
  // Push line 63 out of the L2: nine lines that share its L2 set.
  const Addr l2_sets = arch.l2.size_bytes / (arch.l2.assoc * kCacheLine);
  for (Addr k = 1; k <= 9; ++k) {
    const Addr conflict = page + 63 + k * l2_sets;
    t.read_lines(conflict, conflict);
  }
  ASSERT_FALSE(t.batched.resident(1, (page + 63) * kCacheLine));

  // Lines 61 and 62: L1 hits that request nothing, so every counter but
  // the L1's demand hits stays put, yet the stream moves on. Run again,
  // the walk breaks the stream's direction and re-arms it, and line 63
  // is requested into the L2: a record of the first run would miss that
  // fill. The third run repeats the second exactly and may replay.
  const std::vector<DemandAccess> walk = {{(page + 61) * kCacheLine, 8, false},
                                          {(page + 62) * kCacheLine, 8, false}};
  t.batch(walk);
  EXPECT_EQ(t.batched.replayed_batches(), 0u);
  const std::uint64_t l2_fills = t.twin.level(1).stats().prefetch_fills;
  t.batch(walk);
  EXPECT_EQ(t.twin.level(1).stats().prefetch_fills, l2_fills + 1);
  EXPECT_EQ(t.batched.replayed_batches(), 0u);
  t.batch(walk);
  t.batch(walk);
  EXPECT_EQ(t.batched.replayed_batches(), 1u);
}

}  // namespace
}  // namespace semperm::cachesim
