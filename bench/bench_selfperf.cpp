// Simulator self-performance: how fast is the simulator itself? (Not a
// paper figure — this measures the SoA cachesim rewrite, DESIGN.md §10.)
//
// Scenarios, each reporting simulated cache lines per wall-clock second:
//   l1_hit_stream            SoA cache, word-granular sweep of an
//                            L1-resident buffer (MRU-dominant hits)
//   l1_hit_stream_reference  the retained pre-rewrite implementation
//                            (tests/reference_cache.hpp) on the same stream
//   l1_lru_churn             SoA cache, cyclic sweep where every hit lands
//                            on the LRU way (worst-case rotation)
//   llc_miss_stream          sequential stream 4x a sliced LLC's capacity:
//                            every access misses, fills, and evicts
//   prefetch_heavy           full Hierarchy::simulate() over a sequential
//                            stream with all prefetchers firing
//   llc_compute_phase        Broadwell Hierarchy: compute phases of 24 MiB
//                            and 64 MiB (pollute) between 64-line bursts;
//                            whole-cache work per phase shows up here
//   coherent_4core_mix       4-core CoherentHierarchy, private streams plus
//                            a shared region with stores (MESI traffic)
//   match_list_walk          the app model's baseline match list: Broadwell
//                            Hierarchy, a 24 MiB compute phase, then lines
//                            0 and 3 of 1024 256-byte nodes through
//                            access() in a fixed scattered order
//
// The l1_hit_stream / l1_hit_stream_reference pair embeds the rewrite's
// acceptance ratio ("speedup_vs_reference" in the JSON metrics). Writes
// BENCH_cachesim.json unless --json overrides the path; CI's perf-smoke
// steps compare it against bench/BENCH_cachesim.baseline.json.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "cachesim/arch.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "tests/reference_cache.hpp"

namespace semperm::bench {
namespace {

using cachesim::FillReason;
using cachesim::SetAssocCache;

struct Score {
  std::uint64_t lines = 0;
  double seconds = 0.0;
  // Simulated demand-miss rate of the scenario's central cache (< 0 when
  // the scenario has no meaningful one), reported next to the hardware
  // LLC miss rate so the --json artifact carries the measured-vs-modeled
  // delta (DESIGN.md §16).
  double sim_miss_rate = -1.0;
  // The simulated-cycle profile of the scenario's coherent hierarchy
  // (empty for the single-core scenarios).
  obs::ProfSnapshot profile;
  double lines_per_sec() const { return seconds > 0 ? lines / seconds : 0; }
};

template <typename F>
Score timed(std::uint64_t lines_per_rep, int reps, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) sink += body();
  const auto t1 = std::chrono::steady_clock::now();
  Score s;
  s.lines = lines_per_rep * static_cast<std::uint64_t>(reps);
  s.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (sink == 0xdead) s.seconds = 0;  // defeat dead-code elimination
  return s;
}

// Every driver below makes the calls the products make: access() per
// line, or simulate() over a line array built before the timer starts.
// Per-line addresses come from a pure per-index function or that array,
// so the timed region measures the simulator, not trace generation.

// Word-granular sweep of 256 L1-resident lines: each line is read 4x in a
// row (16 B words of a 64 B line), the dominant pattern the trace replayers
// feed the simulator. 3/4 of hits land on the MRU way.
constexpr std::uint64_t kSweepLen = 256 * 4;
constexpr Addr sweep_line(std::uint64_t i) { return i / 4; }

Score run_l1_hit_stream(int reps) {
  SetAssocCache c("L1", 32 * 1024, 8);
  for (Addr l = 0; l < 256; ++l) c.fill(l, FillReason::kDemand);
  Score s = timed(kSweepLen, reps, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kSweepLen; ++i)
      hits += c.access(sweep_line(i)) ? 1 : 0;
    return hits;
  });
  s.sim_miss_rate = 1.0 - c.stats().hit_rate();
  return s;
}

Score run_l1_hit_stream_reference(int reps) {
  cachesim::testing::ReferenceSetAssocCache c("L1", 32 * 1024, 8);
  for (Addr l = 0; l < 256; ++l) c.fill(l, FillReason::kDemand);
  return timed(kSweepLen, reps, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kSweepLen; ++i)
      hits += c.access(sweep_line(i)) ? 1 : 0;
    return hits;
  });
}

Score run_l1_lru_churn(int reps) {
  // Cyclic sweep of the working set, one touch per line: every hit lands
  // on the LRU way of its set, maximising rotation work.
  SetAssocCache c("L1", 32 * 1024, 8);
  for (Addr l = 0; l < 256; ++l) c.fill(l, FillReason::kDemand);
  Score s = timed(256, 4 * reps, [&] {
    std::uint64_t hits = 0;
    for (Addr l = 0; l < 256; ++l) hits += c.access(l) ? 1 : 0;
    return hits;
  });
  s.sim_miss_rate = 1.0 - c.stats().hit_rate();
  return s;
}

Score run_llc_miss_stream(int reps) {
  // Sliced (non-power-of-two) LLC geometry so the fastmod indexing path is
  // the one being timed: 1152 sets x 16 ways = 1.125 MiB.
  SetAssocCache llc("LLC", 1152 * 16 * kCacheLine, 16);
  const Addr span = static_cast<Addr>(4 * llc.set_count() * 16);
  Score s = timed(span, reps, [&] {
    std::uint64_t filled = 0;
    for (Addr l = 0; l < span; ++l) {
      if (!llc.access(l)) {
        llc.fill(l, FillReason::kDemand);
        ++filled;
      }
    }
    return filled;
  });
  s.sim_miss_rate = 1.0 - llc.stats().hit_rate();
  return s;
}

Score run_prefetch_heavy(int reps) {
  cachesim::Hierarchy h(cachesim::sandy_bridge());
  constexpr std::uint64_t kLines = 16384;  // 1 MiB sweep
  std::vector<Addr> lines(kLines);
  std::iota(lines.begin(), lines.end(), Addr{0});
  Score s = timed(kLines, reps, [&] {
    return static_cast<std::uint64_t>(h.simulate(lines));
  });
  s.sim_miss_rate =
      1.0 - h.level(h.level_count() - 1).stats().hit_rate();
  return s;
}

Score run_llc_compute_phase(int reps) {
  // The app model's message loop on Broadwell's 45 MiB LLC (737,280
  // ways): a compute phase, then a burst of match-state accesses.
  // Repetitions alternate the AMG/MiniFE working set (24 MiB: the LLC
  // keeps its MRU lines) with FDS's (64 MiB: it loses everything). Each
  // phase costs only the sets the burst grew; a pollute or flush that
  // walks every way drops this row by orders of magnitude.
  cachesim::Hierarchy h(cachesim::broadwell());
  constexpr std::uint64_t kLines = 64;
  std::array<Addr, kLines> lines;
  for (std::uint64_t i = 0; i < kLines; ++i) lines[i] = Addr{4099} * i;
  bool fds_phase = false;
  Score s = timed(kLines, reps, [&] {
    h.pollute(fds_phase ? std::size_t{64} << 20 : std::size_t{24} << 20);
    fds_phase = !fds_phase;
    return static_cast<std::uint64_t>(h.simulate(lines));
  });
  s.sim_miss_rate = 1.0 - h.level(h.level_count() - 1).stats().hit_rate();
  return s;
}

Score run_coherent_4core_mix(int reps) {
  constexpr unsigned kCores = 4;
  coherence::CoherentHierarchy coh(cachesim::sandy_bridge(), kCores);
  // Per-core private streams plus a shared region with 25% stores: a mix
  // of silent hits, upgrades, and cross-core interventions. Each access
  // is a pure function of its index (SplitMix64 on i), so the stream is
  // regenerated on the fly every repetition — reproducible without a
  // materialized trace, and the ~2 ns of hashing is noise next to the
  // ~200 ns simulated access.
  constexpr Addr kShared = 1 << 20;
  constexpr std::size_t kLen = kCores * 2048;
  const auto mix64 = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  };
  Score s = timed(kLen, reps, [&] {
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < kLen; ++i) {
      const std::uint64_t h = mix64(i ^ 0xc0);
      const bool shared = (h & 3) == 0;          // 25% shared
      const bool write = shared && ((h >> 2) & 1);  // half of those store
      const Addr line = shared
                            ? kShared + ((h >> 3) % 512)
                            : Addr{4096} * (i % kCores) + ((h >> 3) % 1024);
      cycles += coh.access_line(static_cast<unsigned>(i % kCores), line, write);
    }
    // One occupancy sample per repetition: under --trace the coherent
    // mix contributes per-core L1/L2 + shared-LLC owner curves.
    SEMPERM_TRACE_ONLY(if (obs::trace_on()) coh.trace_sample_occupancy();)
    return cycles;
  });
  if (coh.llc() != nullptr)
    s.sim_miss_rate = 1.0 - coh.llc()->stats().hit_rate();
  s.profile = coh.profile();
  return s;
}

Score run_match_list_walk(int reps) {
  // One message of the app model over a baseline (linked-list) queue: a
  // compute phase wrecks L1/L2 and trims the LLC, then the search reads
  // each node's envelope (line 0) and its link (line 3). Nodes sit where a
  // scattered allocator put them, so the walk defeats the streamer and
  // every line pays the full miss path: probes, demand fills, prefetches.
  cachesim::Hierarchy h(cachesim::broadwell());
  constexpr std::size_t kNodes = 1024;
  constexpr Addr kNodeBytes = 256;
  std::array<Addr, kNodes> order;
  for (std::size_t i = 0; i < kNodes; ++i) order[i] = i;
  Rng rng(0x11f7);
  for (std::size_t i = kNodes - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);
  Score s = timed(2 * kNodes, reps, [&] {
    h.pollute(std::size_t{24} << 20);
    std::uint64_t cycles = 0;
    for (const Addr node : order) {
      cycles += h.access(node * kNodeBytes, 8);
      cycles += h.access(node * kNodeBytes + 3 * kCacheLine, 8);
    }
    return cycles;
  });
  s.sim_miss_rate = 1.0 - h.level(h.level_count() - 1).stats().hit_rate();
  return s;
}

}  // namespace
}  // namespace semperm::bench

int main(int argc, char** argv) {
  using namespace semperm;
  using bench::Score;
  Cli cli("bench_selfperf",
          "Simulator self-performance: lines/sec per cachesim scenario");
  bench::add_standard_flags(cli);
  cli.add_flag("profile",
               "Attribute simulated cycles per access-path site and print "
               "the bucket table");
  cli.add_string("profile-out", "",
                 "Also write the profile as flamegraph.pl collapsed-stack "
                 "lines to this file");
  if (!cli.parse(argc, argv)) return 0;
  bench::configure_report(cli);
  bench::default_json_path("BENCH_cachesim.json");
  const bool quick = cli.flag("quick");
  const int reps = quick ? 200 : 2000;

  struct Scenario {
    const char* name;
    Score (*run)(int);
    int reps;
  };
  const Scenario scenarios[] = {
      {"l1_hit_stream", bench::run_l1_hit_stream, reps},
      {"l1_hit_stream_reference", bench::run_l1_hit_stream_reference, reps},
      {"l1_lru_churn", bench::run_l1_lru_churn, reps},
      {"llc_miss_stream", bench::run_llc_miss_stream, quick ? 4 : 40},
      {"prefetch_heavy", bench::run_prefetch_heavy, quick ? 20 : 200},
      {"llc_compute_phase", bench::run_llc_compute_phase, 2000},
      {"coherent_4core_mix", bench::run_coherent_4core_mix, quick ? 20 : 200},
      {"match_list_walk", bench::run_match_list_walk, quick ? 200 : 2000},
  };

  // Which probe backend this binary measured: CI's perf-smoke steps assert
  // a Release build reports a vector backend, not the scalar fallback.
  bench::report_label("simd_backend", simd::backend());

  Table table({"scenario", "lines", "seconds", "Mlines/s", "reps"});
  // Every run's profile, auto-scale reruns included.
  obs::ProfSnapshot profile;
  double soa_rate = 0;
  double ref_rate = 0;
  for (const auto& s : scenarios) {
    if (!bench::panel_enabled(s.name)) continue;
    // One counter group per scenario, bracketing every run() call (the
    // auto-scale reruns included), so the reading covers exactly the
    // scenario's native hot loop. When the group cannot open the run
    // proceeds and the report says "hw_counters": "unavailable".
    obs::PerfCounters pc;
    obs::PerfCounters::Reading hw;
    const auto run_counted = [&](int n) {
      pc.start();
      Score sc = s.run(n);
      hw = pc.stop();
      profile += sc.profile;
      return sc;
    };
    // Auto-scale repetitions until the scenario runs >= 250 ms, so the
    // reported rate is not dominated by timer granularity or a cold first
    // pass. The table reps are the floor; quick mode keeps them as-is.
    // The chosen count is echoed per scenario ("<name>_reps") so two
    // reports are comparable at a glance.
    int reps = s.reps;
    Score score = run_counted(reps);
    if (!quick) {
      for (int round = 0; round < 6 && score.seconds < 0.25; ++round) {
        const double scale =
            score.seconds > 0 ? 0.30 / score.seconds : 8.0;
        reps = std::max(
            reps + 1,
            static_cast<int>(reps * std::min(scale, 16.0)));
        score = run_counted(reps);
      }
    }
    table.add_row({s.name, Table::num(score.lines),
                   Table::num(score.seconds, 3),
                   Table::num(score.lines_per_sec() / 1e6, 1),
                   Table::num(static_cast<std::int64_t>(reps))});
    bench::report_metric(std::string(s.name) + "_lines_per_sec",
                         score.lines_per_sec());
    bench::report_metric(std::string(s.name) + "_reps", reps);
    if (pc.ok())
      bench::report_hw_counters(s.name, hw);
    else
      bench::report_hw_unavailable(pc.error());
    if (score.sim_miss_rate >= 0.0) {
      bench::report_metric(std::string(s.name) + "_sim_miss_rate",
                           score.sim_miss_rate);
      if (hw.has_llc_loads() && hw.has_llc_load_misses())
        bench::report_metric(std::string(s.name) + "_miss_rate_delta",
                             hw.llc_miss_rate() - score.sim_miss_rate);
    }
    if (std::string(s.name) == "l1_hit_stream")
      soa_rate = score.lines_per_sec();
    if (std::string(s.name) == "l1_hit_stream_reference")
      ref_rate = score.lines_per_sec();
  }
  if (soa_rate > 0 && ref_rate > 0)
    bench::report_metric("l1_hit_stream_speedup_vs_reference",
                         soa_rate / ref_rate);
  bench::emit("cachesim self-performance", table, cli.flag("csv"));
  if (cli.flag("profile")) {
    std::fputs(obs::prof_table(profile).c_str(), stdout);
    bench::report_metric("profile_total_cycles",
                         static_cast<double>(profile.total_cycles()));
    const std::string out_path = cli.get_string("profile-out");
    if (!out_path.empty()) {
      std::ofstream os(out_path);
      if (!os) {
        std::fprintf(stderr, "cannot write profile to %s\n", out_path.c_str());
        return 1;
      }
      os << obs::prof_collapsed(profile);
    }
  }
  return bench::finish_report();
}
