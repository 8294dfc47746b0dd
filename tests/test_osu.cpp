// The simulated OSU drivers: sanity of the bandwidth model and the
// paper-shape directional checks that Figures 4-7 rely on.

#include "workloads/osu.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace semperm::workloads {
namespace {

OsuParams quick(const std::string& queue, std::size_t bytes,
                std::size_t depth) {
  OsuParams p;
  p.queue = match::QueueConfig::from_label(queue);
  p.msg_bytes = bytes;
  p.queue_depth = depth;
  p.iterations = 3;
  p.warmup_iterations = 1;
  return p;
}

TEST(OsuBw, DeterministicAcrossRuns) {
  const auto a = run_osu_bw(quick("lla-8", 1, 128));
  const auto b = run_osu_bw(quick("lla-8", 1, 128));
  EXPECT_DOUBLE_EQ(a.bandwidth_mibps, b.bandwidth_mibps);
  EXPECT_DOUBLE_EQ(a.match_ns_per_msg, b.match_ns_per_msg);
}

TEST(OsuBw, SearchDepthTracksQueueDepth) {
  const auto r = run_osu_bw(quick("baseline", 1, 256));
  // Every message walks the 256 pre-populated entries first.
  EXPECT_NEAR(r.mean_search_depth, 257.0, 2.0);
}

TEST(OsuBw, BandwidthFallsWithDepth) {
  const auto shallow = run_osu_bw(quick("baseline", 1, 1));
  const auto deep = run_osu_bw(quick("baseline", 1, 2048));
  EXPECT_GT(shallow.bandwidth_mibps, 2.0 * deep.bandwidth_mibps);
}

TEST(OsuBw, LargeMessagesAreWireBound) {
  auto p = quick("baseline", 1 << 20, 1024);
  const auto base = run_osu_bw(p);
  p.queue = match::QueueConfig::from_label("lla-8");
  const auto lla = run_osu_bw(p);
  const double wire = p.net.bandwidth_mibps();
  EXPECT_NEAR(base.bandwidth_mibps, wire, wire * 0.05);
  EXPECT_NEAR(lla.bandwidth_mibps, base.bandwidth_mibps,
              base.bandwidth_mibps * 0.02);
}

TEST(OsuBw, SpatialLocalityWinsAtDepth) {
  // The Fig. 4 headline: LLA beats the baseline clearly at depth 1024 for
  // small messages.
  const auto base = run_osu_bw(quick("baseline", 1, 1024));
  const auto lla8 = run_osu_bw(quick("lla-8", 1, 1024));
  EXPECT_GT(lla8.bandwidth_mibps, 1.8 * base.bandwidth_mibps);
  EXPECT_LT(lla8.dram_fetches_per_msg, base.dram_fetches_per_msg);
}

TEST(OsuBw, LlaKneeAtEight) {
  // Gains grow through LLA-8 and largely stop there (Fig. 4b analysis).
  const auto lla2 = run_osu_bw(quick("lla-2", 1, 1024));
  const auto lla8 = run_osu_bw(quick("lla-8", 1, 1024));
  const auto lla32 = run_osu_bw(quick("lla-32", 1, 1024));
  EXPECT_GT(lla8.bandwidth_mibps, lla2.bandwidth_mibps);
  EXPECT_LT(lla32.bandwidth_mibps, 1.25 * lla8.bandwidth_mibps);
}

TEST(OsuBw, HotCachingHelpsOnSandyBridge) {
  auto p = quick("baseline", 1, 1024);
  const auto cold = run_osu_bw(p);
  p.heater = HeaterMode::kPerElement;
  const auto heated = run_osu_bw(p);
  EXPECT_GT(heated.bandwidth_mibps, 1.1 * cold.bandwidth_mibps);
  EXPECT_GT(heated.llc_hit_rate, cold.llc_hit_rate);
}

TEST(OsuBw, HotCachingHurtsOnBroadwell) {
  // The Fig. 7 result: Broadwell's big LLC already retains the list across
  // compute phases, so the heater adds only overhead.
  auto p = quick("baseline", 1, 1024);
  p.arch = cachesim::broadwell();
  p.net = simmpi::omnipath();
  const auto off = run_osu_bw(p);
  p.heater = HeaterMode::kPerElement;
  const auto on = run_osu_bw(p);
  EXPECT_LT(on.bandwidth_mibps, off.bandwidth_mibps);
}

TEST(OsuBw, PooledHeaterBeatsPerElement) {
  auto p = quick("lla-2", 1, 1024);
  p.heater = HeaterMode::kPooled;
  const auto pooled = run_osu_bw(p);
  auto q = quick("baseline", 1, 1024);
  q.heater = HeaterMode::kPerElement;
  const auto per_element = run_osu_bw(q);
  EXPECT_GT(pooled.bandwidth_mibps, per_element.bandwidth_mibps);
}

TEST(OsuBw, CacheClearingMatters) {
  auto p = quick("baseline", 1, 1024);
  p.clear_cache_between_iterations = false;
  const auto warm = run_osu_bw(p);
  p.clear_cache_between_iterations = true;
  const auto cleared = run_osu_bw(p);
  EXPECT_GE(warm.bandwidth_mibps, cleared.bandwidth_mibps);
}

TEST(OsuBw, FullFlushHarsherThanPollution) {
  auto p = quick("baseline", 1, 1024);
  p.arch = cachesim::broadwell();  // large LLC retains under pollution
  const auto polluted = run_osu_bw(p);
  p.compute_working_set_bytes = 0;  // full flush
  const auto flushed = run_osu_bw(p);
  EXPECT_GT(polluted.bandwidth_mibps, flushed.bandwidth_mibps);
}

// Field tuples, so a mismatch prints every counter of both runs.
auto level_counts(const cachesim::LevelSummary& l) {
  return std::tuple(l.name, l.demand_hits, l.demand_misses, l.prefetch_fills,
                    l.prefetch_hits, l.writebacks);
}

auto fault_counts(const fault::FaultStats& f) {
  return std::tuple(f.rolls, f.drops, f.duplicates, f.reorders, f.delays,
                    f.heater_stalls, f.forced_deliveries);
}

/// What a chaos plan must leave alone (DESIGN.md §12.2): the matching
/// stream and every hierarchy counter it drives.
void expect_same_matching(const OsuResult& a, const OsuResult& b) {
  EXPECT_EQ(a.match_ns_per_msg, b.match_ns_per_msg);
  EXPECT_EQ(a.mean_search_depth, b.mean_search_depth);
  EXPECT_EQ(a.dram_fetches_per_msg, b.dram_fetches_per_msg);
  EXPECT_EQ(a.llc_hit_rate, b.llc_hit_rate);
  EXPECT_EQ(a.hier.accesses, b.hier.accesses);
  EXPECT_EQ(a.hier.lines_touched, b.hier.lines_touched);
  EXPECT_EQ(a.hier.dram_fetches, b.hier.dram_fetches);
  EXPECT_EQ(a.hier.total_cycles, b.hier.total_cycles);
  ASSERT_EQ(a.hier.levels.size(), b.hier.levels.size());
  for (std::size_t i = 0; i < a.hier.levels.size(); ++i)
    EXPECT_EQ(level_counts(a.hier.levels[i]), level_counts(b.hier.levels[i]));
}

void expect_same_result(const OsuResult& a, const OsuResult& b) {
  EXPECT_EQ(a.bandwidth_mibps, b.bandwidth_mibps);
  EXPECT_EQ(a.msg_time_ns, b.msg_time_ns);
  expect_same_matching(a, b);
  EXPECT_EQ(fault_counts(a.faults), fault_counts(b.faults));
  EXPECT_EQ(a.stalled_refreshes, b.stalled_refreshes);
}

OsuParams chaos_run() {
  auto p = quick("baseline", 1, 128);
  p.iterations = 8;
  return p;
}

TEST(OsuBw, ChaosTaxMovesWireTimeOnly) {
  auto p = chaos_run();
  const auto clean = run_osu_bw(p);
  const auto plan = fault::FaultPlan::parse("drop=0.05,dup=0.02,seed=7");
  p.fault = &plan;
  const auto chaos = run_osu_bw(p);
  EXPECT_LT(chaos.bandwidth_mibps, clean.bandwidth_mibps);
  EXPECT_GT(chaos.faults.drops, 0u);
  expect_same_matching(chaos, clean);
  expect_same_result(run_osu_bw(p), chaos);  // the plan replays exactly
}

TEST(OsuBw, HeaterStallsSkipPooledRefreshes) {
  auto p = chaos_run();
  p.queue = match::QueueConfig::from_label("lla-2");
  p.heater = HeaterMode::kPooled;
  const auto plan = fault::FaultPlan::parse("stall=0.5,seed=7");
  p.fault = &plan;
  const auto r = run_osu_bw(p);
  EXPECT_GT(r.stalled_refreshes, 0u);
  EXPECT_EQ(r.stalled_refreshes, r.faults.heater_stalls);
}

TEST(OsuBw, StallPlanWithoutHeaterTaxesNothing) {
  auto p = chaos_run();
  const auto clean = run_osu_bw(p);
  const auto plan = fault::FaultPlan::parse("stall=0.5,seed=7");
  p.fault = &plan;
  auto stalled = run_osu_bw(p);
  stalled.faults = clean.faults;  // the injector's own counts may differ
  expect_same_result(stalled, clean);
}

TEST(HeaterModeNames, Stable) {
  EXPECT_EQ(heater_mode_name(HeaterMode::kOff), "off");
  EXPECT_EQ(heater_mode_name(HeaterMode::kPerElement), "HC");
  EXPECT_EQ(heater_mode_name(HeaterMode::kPooled), "HC+pool");
}

}  // namespace
}  // namespace semperm::workloads
