#include "traffic/flow_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "memlayout/arena.hpp"
#include "resilience/admission.hpp"

namespace semperm::traffic {
namespace {

TEST(AutoGeometry, TracksPopulationAndClamps) {
  // One slot per 8 standing flows, power-of-two, clamped to [2^12, 2^22].
  EXPECT_EQ(auto_geometry(100).slots, std::size_t{1} << 12);
  EXPECT_EQ(auto_geometry(1'000'000).slots, std::size_t{1} << 17);  // 8 MiB
  EXPECT_EQ(auto_geometry(10'000'000).slots, std::size_t{1} << 21);  // 128 MiB
  EXPECT_EQ(auto_geometry(std::uint64_t{1} << 40).slots,
            std::size_t{1} << 22);
  EXPECT_EQ(auto_geometry(1'000'000).slots % auto_geometry(1'000'000).ways,
            0u);
}

TEST(FlowTable, MissThenHitConservation) {
  FlowTable table(FlowTableConfig{.slots = 1024, .ways = 8});
  EXPECT_FALSE(table.steer(42, nullptr));
  EXPECT_TRUE(table.steer(42, nullptr));
  EXPECT_FALSE(table.steer(43, nullptr));
  const FlowTableStats& s = table.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.lookups, s.hits + s.misses);
  EXPECT_EQ(table.live_flows(), 2u);
  EXPECT_NEAR(s.hit_ratio(), 1.0 / 3.0, 1e-12);
}

TEST(FlowTable, LruEvictionWithinASet) {
  // One set (slots == ways): every flow collides, so the 9th insertion
  // must evict the least recently used of the first 8.
  FlowTable table(FlowTableConfig{.slots = 8, .ways = 8});
  for (std::uint64_t f = 0; f < 8; ++f) EXPECT_FALSE(table.steer(f, nullptr));
  // Refresh flows 1..7; flow 0 becomes the LRU victim.
  for (std::uint64_t f = 1; f < 8; ++f) EXPECT_TRUE(table.steer(f, nullptr));
  EXPECT_FALSE(table.steer(100, nullptr));
  EXPECT_EQ(table.stats().evictions, 1u);
  EXPECT_EQ(table.live_flows(), 8u);
  EXPECT_TRUE(table.steer(100, nullptr));   // the newcomer is resident
  EXPECT_FALSE(table.steer(0, nullptr));    // flow 0 was the victim
  EXPECT_EQ(table.stats().lookups,
            table.stats().hits + table.stats().misses);
}

TEST(FlowTable, DeterministicAcrossInstances) {
  const FlowTableConfig cfg{.slots = 512, .ways = 4, .salt = 0x1234};
  FlowTable a(cfg), b(cfg);
  for (std::uint64_t f = 0; f < 5000; ++f) {
    const std::uint64_t id = (f * 2654435761u) % 1500;
    ASSERT_EQ(a.steer(id, nullptr), b.steer(id, nullptr));
  }
  EXPECT_EQ(a.stats().hits, b.stats().hits);
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.live_flows(), b.live_flows());
}

TEST(FlowTable, SaltChangesPlacementNotConservation) {
  FlowTable a(FlowTableConfig{.slots = 64, .ways = 4, .salt = 1});
  FlowTable b(FlowTableConfig{.slots = 64, .ways = 4, .salt = 2});
  // 40 distinct flows fit the 64 slots, so both tables converge to hits;
  // different salts just place them in different sets.
  for (std::uint64_t f = 0; f < 4000; ++f) {
    a.steer(f % 40, nullptr);
    b.steer(f % 40, nullptr);
  }
  EXPECT_EQ(a.stats().lookups, a.stats().hits + a.stats().misses);
  EXPECT_EQ(b.stats().lookups, b.stats().hits + b.stats().misses);
  EXPECT_NE(a.stats().hits, 0u);
  EXPECT_NE(b.stats().hits, 0u);
}

TEST(FlowTable, SimAttachmentReportsProbedLines) {
  FlowTable table(FlowTableConfig{.slots = 256, .ways = 8});
  EXPECT_FALSE(table.sim_attached());
  memlayout::AddressSpace space;
  table.attach_sim(space);
  EXPECT_TRUE(table.sim_attached());

  std::vector<Addr> lines;
  EXPECT_FALSE(table.steer(7, &lines));
  // A miss probes every way of the set, then writes the installed slot.
  EXPECT_EQ(lines.size(), table.ways() + 1);
  const Addr first = table.sim_first_line();
  const Addr last = first + table.slot_count();
  for (const Addr line : lines) {
    EXPECT_GE(line, first);
    EXPECT_LT(line, last);
  }
  // The probed ways are consecutive lines of one set row.
  for (unsigned w = 1; w < table.ways(); ++w)
    EXPECT_EQ(lines[w], lines[0] + w);

  lines.clear();
  EXPECT_TRUE(table.steer(7, &lines));
  EXPECT_GE(lines.size(), 1u);   // hit: probed ways up to the match
  EXPECT_LE(lines.size(), table.ways());
}

TEST(FlowTable, AdmissionFilterBlocksColdDisplacement) {
  // One set: every flow collides. Residents are made frequent, so the
  // doorkeeper must refuse a one-hit wonder the eviction slot.
  FlowTable table(FlowTableConfig{.slots = 8, .ways = 8});
  resilience::AdmissionFilter filter(resilience::AdmissionConfig{
      .rows = 4, .counters_log2 = 8, .age_period = 1 << 20});
  table.set_admission(&filter);
  // Empty slots never consult the filter: the warmup installs freely.
  for (std::uint64_t f = 0; f < 8; ++f) EXPECT_FALSE(table.steer(f, nullptr));
  for (int round = 0; round < 4; ++round)
    for (std::uint64_t f = 0; f < 8; ++f) EXPECT_TRUE(table.steer(f, nullptr));
  const std::uint64_t insertions_before = table.stats().insertions;

  // A first-time flow misses and is refused the displacement...
  EXPECT_FALSE(table.steer(100, nullptr));
  const FlowTableStats& s = table.stats();
  EXPECT_EQ(s.admission_rejects, 1u);
  EXPECT_EQ(s.insertions, insertions_before);  // no install
  EXPECT_EQ(s.evictions, 0u);                  // no displacement
  EXPECT_EQ(filter.stats().rejects, 1u);
  // ...so the would-be victim is still resident and the newcomer is not.
  for (std::uint64_t f = 0; f < 8; ++f) EXPECT_TRUE(table.steer(f, nullptr));
  EXPECT_FALSE(table.steer(100, nullptr));
  // Rejected misses still count as misses: conservation is unchanged.
  EXPECT_EQ(s.lookups, s.hits + s.misses);
  table.set_admission(nullptr);
}

TEST(FlowTable, ProbeNeverInstalls) {
  FlowTable table(FlowTableConfig{.slots = 1024, .ways = 8});
  // Probe misses leave the table untouched: the same flow still misses
  // on the next demand lookup (L3 shed-new-flows semantics).
  EXPECT_FALSE(table.probe(42, nullptr));
  EXPECT_FALSE(table.probe(42, nullptr));
  // An empty slot's flow id is 0 as well: only its stamp tells it apart.
  EXPECT_FALSE(table.probe(0, nullptr));
  EXPECT_EQ(table.stats().insertions, 0u);
  EXPECT_EQ(table.live_flows(), 0u);
  EXPECT_FALSE(table.steer(42, nullptr));  // install happens here
  EXPECT_TRUE(table.probe(42, nullptr));   // now a probe hit
  const FlowTableStats& s = table.stats();
  // Probes are accounted separately so the demand identity survives.
  EXPECT_EQ(s.probe_lookups, 4u);
  EXPECT_EQ(s.probe_hits, 1u);
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.lookups, s.hits + s.misses);
}

}  // namespace
}  // namespace semperm::traffic
