// Host self-performance: how fast do the simulator and the native
// structures run on this machine? (Not a paper figure.) This is the one
// bench main that reads the host clock or starts threads; every other
// main writes the same report on every same-seed run.
//
// Scenarios, each reporting <scenario>_<unit>_per_sec:
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
//   traffic_*                the steering workload's native hot paths
//                            (DESIGN.md §13): Zipf-table build, steady and
//                            flash-crowd generation, flow-table steering
//                            with and without the admission filter
//   queue_<label>_d<depth>   native match engine: one post_recv + incoming
//                            pair past `depth` never-matching receives
//                            (also reports _search_depth)
//   native_heater_pass       hotcache::HeaterThread::run_single_pass over a
//                            256 KiB registered buffer, on this thread
//
// and one panel, the multithreaded matching contention sweep (§2.3): T
// posting and T sending threads on one mutex-guarded engine.
//
// The l1_hit_stream / l1_hit_stream_reference pair embeds the rewrite's
// acceptance ratio ("speedup_vs_reference" in the JSON metrics). Writes
// BENCH_cachesim.json unless --json overrides the path; CI's perf-smoke
// steps compare it against bench/BENCH_cachesim.baseline.json.

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "cachesim/arch.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "hotcache/heater_thread.hpp"
#include "hotcache/region_registry.hpp"
#include "match/factory.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "resilience/admission.hpp"
#include "tests/reference_cache.hpp"
#include "traffic/flow_gen.hpp"
#include "traffic/flow_table.hpp"

namespace semperm::bench {
namespace {

using cachesim::FillReason;
using cachesim::SetAssocCache;

struct Score {
  std::uint64_t items = 0;
  double seconds = 0.0;
  // The counter group's reading over the timed loop.
  obs::PerfCounters::Reading hw;
  // Simulated demand-miss rate of the scenario's central cache (< 0 when
  // the scenario has no meaningful one), reported next to the hardware
  // LLC miss rate so the --json artifact carries the measured-vs-modeled
  // delta (DESIGN.md §16).
  double sim_miss_rate = -1.0;
  // Mean PRQ entries inspected per match (< 0 outside the queue rows).
  double search_depth = -1.0;
  // The simulated-cycle profile of the scenario's coherent hierarchy
  // (empty for the single-core scenarios).
  obs::ProfSnapshot profile;
  double per_sec() const { return seconds > 0 ? items / seconds : 0; }
};

// How one scenario run is measured: `reps` calls of its body, with its
// counter group enabled around exactly those calls. The contention sweep
// passes no group: its work runs on threads a group opened on this one
// does not count.
struct Meter {
  int reps = 1;
  obs::PerfCounters* counters = nullptr;
};

// The one host clock of every bench main. Set-up before the call and
// teardown after it stay outside both the clock and the counters.
template <typename F>
Score timed(const Meter& m, std::uint64_t items_per_rep, F&& body) {
  if (m.counters != nullptr) m.counters->start();
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int r = 0; r < m.reps; ++r) sink += body();
  const auto t1 = std::chrono::steady_clock::now();
  Score s;
  if (m.counters != nullptr) s.hw = m.counters->stop();
  s.items = items_per_rep * static_cast<std::uint64_t>(m.reps);
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

Score run_l1_hit_stream(const Meter& m) {
  SetAssocCache c("L1", 32 * 1024, 8);
  for (Addr l = 0; l < 256; ++l) c.fill(l, FillReason::kDemand);
  Score s = timed(m, kSweepLen, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kSweepLen; ++i)
      hits += c.access(sweep_line(i)) ? 1 : 0;
    return hits;
  });
  s.sim_miss_rate = 1.0 - c.stats().hit_rate();
  return s;
}

Score run_l1_hit_stream_reference(const Meter& m) {
  cachesim::testing::ReferenceSetAssocCache c("L1", 32 * 1024, 8);
  for (Addr l = 0; l < 256; ++l) c.fill(l, FillReason::kDemand);
  return timed(m, kSweepLen, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kSweepLen; ++i)
      hits += c.access(sweep_line(i)) ? 1 : 0;
    return hits;
  });
}

Score run_l1_lru_churn(const Meter& m) {
  // Cyclic sweep of the working set, one touch per line: every hit lands
  // on the LRU way of its set, maximising rotation work.
  SetAssocCache c("L1", 32 * 1024, 8);
  for (Addr l = 0; l < 256; ++l) c.fill(l, FillReason::kDemand);
  Score s = timed(Meter{4 * m.reps, m.counters}, 256, [&] {
    std::uint64_t hits = 0;
    for (Addr l = 0; l < 256; ++l) hits += c.access(l) ? 1 : 0;
    return hits;
  });
  s.sim_miss_rate = 1.0 - c.stats().hit_rate();
  return s;
}

Score run_llc_miss_stream(const Meter& m) {
  // Sliced (non-power-of-two) LLC geometry so the fastmod indexing path is
  // the one being timed: 1152 sets x 16 ways = 1.125 MiB.
  SetAssocCache llc("LLC", 1152 * 16 * kCacheLine, 16);
  const Addr span = static_cast<Addr>(4 * llc.set_count() * 16);
  Score s = timed(m, span, [&] {
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

Score run_prefetch_heavy(const Meter& m) {
  cachesim::Hierarchy h(cachesim::sandy_bridge());
  constexpr std::uint64_t kLines = 16384;  // 1 MiB sweep
  std::vector<Addr> lines(kLines);
  std::iota(lines.begin(), lines.end(), Addr{0});
  Score s = timed(m, kLines, [&] {
    return static_cast<std::uint64_t>(h.simulate(lines));
  });
  s.sim_miss_rate =
      1.0 - h.level(h.level_count() - 1).stats().hit_rate();
  return s;
}

Score run_llc_compute_phase(const Meter& m) {
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
  Score s = timed(m, kLines, [&] {
    h.pollute(fds_phase ? std::size_t{64} << 20 : std::size_t{24} << 20);
    fds_phase = !fds_phase;
    return static_cast<std::uint64_t>(h.simulate(lines));
  });
  s.sim_miss_rate = 1.0 - h.level(h.level_count() - 1).stats().hit_rate();
  return s;
}

Score run_coherent_4core_mix(const Meter& m) {
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
  Score s = timed(m, kLen, [&] {
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

Score run_match_list_walk(const Meter& m) {
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
  Score s = timed(m, 2 * kNodes, [&] {
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

// The steering workload's generator: 2^20 flows at s = 1.0.
traffic::FlowGenParams steering_flows() {
  traffic::FlowGenParams gp;
  gp.flows = std::uint64_t{1} << 20;
  gp.zipf_s = 1.0;
  return gp;
}

Score run_zipf_build(const Meter& m, std::uint64_t ranks) {
  // One alias-table build at the steering workload's skew: the set-up
  // every FlowGenerator pays. The last table's teardown is not timed.
  std::optional<traffic::ZipfSampler> built;
  return timed(m, ranks, [&] {
    built.emplace(ranks, 1.05);
    return built->support();
  });
}

Score run_flow_gen(const Meter& m, const traffic::FlowGenParams& gp,
                   std::uint64_t flows) {
  traffic::FlowGenerator gen(gp);
  std::vector<std::uint64_t> buf(8192);
  const std::uint64_t batches = (flows + buf.size() - 1) / buf.size();
  return timed(m, batches * buf.size(), [&] {
    std::uint64_t sink = 0;
    for (std::uint64_t b = 0; b < batches; ++b) sink ^= gen.next_batch(buf);
    return sink;
  });
}

Score run_steer(const Meter& m, std::uint64_t lookups, bool admission) {
  // With `admission`, the TinyLFU filter is attached: the resilience
  // layer's worst-case per-lookup overhead (sketch record on every
  // arrival, estimate pair on contested installs).
  const traffic::FlowGenParams gp = steering_flows();
  traffic::FlowGenerator gen(gp);
  traffic::FlowTable table(traffic::auto_geometry(gp.flows));
  resilience::AdmissionFilter filter{resilience::AdmissionConfig{}};
  if (admission) table.set_admission(&filter);
  return timed(m, lookups, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < lookups; ++i)
      hits += table.steer(gen.next(), nullptr) ? 1 : 0;
    return hits;
  });
}

// The native match engine's ops per repetition of a queue row.
constexpr int kQueueOps = 256;

Score run_queue(const Meter& m, const std::string& label, std::size_t depth) {
  // The PRQ holds `depth` receives from source 2 that the op's message
  // (source 1, tag 7) never matches, so every match searches past them.
  NativeMem mem;
  memlayout::AddressSpace space;
  auto cfg = match::QueueConfig::from_label(label);
  cfg.arena_bytes = std::max<std::size_t>(depth * 512, 1u << 20);
  auto bundle = match::make_engine(mem, space, cfg);
  std::vector<match::MatchRequest> decoys(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    decoys[i] = match::MatchRequest(match::RequestKind::kRecv, i);
    bundle->post_recv(
        match::Pattern::make(/*source=*/2,
                             1'000'000 + static_cast<std::int32_t>(i), 0),
        &decoys[i]);
  }
  match::MatchRequest recv(match::RequestKind::kRecv, 1);
  match::MatchRequest msg(match::RequestKind::kUnexpected, 2);
  Score s = timed(m, kQueueOps, [&] {
    std::uint64_t matched = 0;
    for (int i = 0; i < kQueueOps; ++i) {
      bundle->post_recv(match::Pattern::make(1, 7, 0), &recv);
      matched += bundle->incoming(match::Envelope{7, 1, 0}, &msg) != nullptr;
    }
    return matched;
  });
  s.search_depth = bundle->prq().stats().mean_inspected();
  return s;
}

Score run_native_heater_pass(const Meter& m) {
  // The heater thread's own work, on this thread: the same instructions a
  // counter group opened inside the heater thread would count.
  constexpr std::size_t kRegionBytes = 256 * 1024;
  std::vector<std::byte> region(kRegionBytes, std::byte{1});
  hotcache::RegionRegistry registry;
  registry.register_region(region.data(), region.size());
  hotcache::HeaterThread heater(registry, hotcache::HeaterConfig{});
  return timed(m, kRegionBytes / kCacheLine, [&] {
    heater.run_single_pass();
    return std::uint64_t{0};
  });
}

constexpr const char* kContentionTitle =
    "Multithreaded matching contention (native, this machine)";

struct MtResult {
  double mops_per_sec = 0.0;
  double mean_depth = 0.0;
  std::uint64_t max_prq_len = 0;
};

// The paper's motivation (§1, §2.3): MPI_THREAD_MULTIPLE concentrates many
// threads' traffic on a single match engine, growing list lengths and
// search depths while adding lock contention. T posting threads and T
// sending threads run against ONE engine guarded by a mutex — the
// structure a THREAD_MULTIPLE MPI library has. List length and search
// depth grow with the thread count (scheduling interleaves the bursts —
// the Table 1 effect, live); the scheduler picks the interleaving, so
// they vary from run to run. On a single-core host the thread counts
// time-slice, so throughput mostly shows lock overhead.
MtResult run_contended(const std::string& label, int threads,
                       int recvs_per_thread, int rounds) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto cfg = match::QueueConfig::from_label(label);
  if (cfg.kind == match::QueueKind::kOmpiBins ||
      cfg.kind == match::QueueKind::kFourDim)
    cfg.bins = static_cast<std::size_t>(threads) + 2;
  auto bundle = match::make_engine(mem, space, cfg);
  bundle->enable_sampling(16, 16);
  std::mutex engine_mutex;  // the THREAD_MULTIPLE big lock

  // Requests live for the whole run; indexed [thread][i].
  const std::size_t per_thread = static_cast<std::size_t>(recvs_per_thread);
  std::vector<std::vector<match::MatchRequest>> recv_reqs(
      static_cast<std::size_t>(threads));
  std::vector<std::vector<match::MatchRequest>> msg_reqs(
      static_cast<std::size_t>(threads));
  for (auto& v : recv_reqs) v.resize(per_thread);
  for (auto& v : msg_reqs) v.resize(per_thread);

  std::barrier sync(threads);
  auto worker = [&](int tid) {
    Rng rng(0x3ead5ULL + static_cast<std::uint64_t>(tid));
    for (int round = 0; round < rounds; ++round) {
      // Phase 1: every thread posts its receives (tag = tid, sub-tag i).
      for (std::size_t i = 0; i < per_thread; ++i) {
        recv_reqs[static_cast<std::size_t>(tid)][i] = match::MatchRequest(
            match::RequestKind::kRecv, static_cast<std::uint64_t>(i));
        std::lock_guard<std::mutex> lock(engine_mutex);
        bundle->post_recv(
            match::Pattern::make(
                tid, round * recvs_per_thread + static_cast<int>(i), 0),
            &recv_reqs[static_cast<std::size_t>(tid)][i]);
      }
      sync.arrive_and_wait();
      // Phase 2: every thread proxies the sends for its *neighbour's*
      // receives, in a scheduling-shuffled order.
      const int target = (tid + 1) % threads;
      std::vector<int> order(per_thread);
      for (std::size_t i = 0; i < per_thread; ++i) order[i] = static_cast<int>(i);
      rng.shuffle(order);
      for (int i : order) {
        msg_reqs[static_cast<std::size_t>(tid)][static_cast<std::size_t>(i)] =
            match::MatchRequest(match::RequestKind::kUnexpected,
                                static_cast<std::uint64_t>(i));
        std::lock_guard<std::mutex> lock(engine_mutex);
        bundle->incoming(
            match::Envelope{round * recvs_per_thread + i,
                            static_cast<std::int16_t>(target), 0},
            &msg_reqs[static_cast<std::size_t>(tid)][static_cast<std::size_t>(i)]);
      }
      sync.arrive_and_wait();
    }
  };

  const std::uint64_t ops = 2 * per_thread * static_cast<std::uint64_t>(threads) *
                            static_cast<std::uint64_t>(rounds);
  const Score score = timed(Meter{}, ops, [&] {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& t : pool) t.join();
    return std::uint64_t{0};
  });

  MtResult r;
  r.mops_per_sec = score.per_sec() / 1e6;
  r.mean_depth = bundle->prq().stats().mean_inspected();
  r.max_prq_len = bundle->prq_sampler()->histogram().max_value_seen();
  return r;
}

void run_contention_panel(bool quick, bool csv) {
  if (!panel_enabled(kContentionTitle)) return;
  const int recvs = quick ? 64 : 256;  // receives per thread per round
  const int rounds = quick ? 5 : 20;
  Table table({"threads", "structure", "Mops/s", "mean search depth",
               "peak PRQ length"});
  for (int threads : {1, 2, 4, 8}) {
    for (const char* label : {"baseline", "lla-8", "ompi", "hash-256"}) {
      const MtResult r = run_contended(label, threads, recvs, rounds);
      table.add_row({Table::num(std::int64_t{threads}), label,
                     Table::num(r.mops_per_sec, 3), Table::num(r.mean_depth, 1),
                     Table::num(std::uint64_t{r.max_prq_len})});
    }
  }
  emit(kContentionTitle, table, csv);
}

}  // namespace
}  // namespace semperm::bench

int main(int argc, char** argv) {
  using namespace semperm;
  using bench::Meter;
  using bench::Score;
  Cli cli("bench_selfperf",
          "Host self-performance: items/sec per simulator and native "
          "scenario");
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
    std::string name;
    const char* unit;
    std::function<Score(const Meter&)> run;
    int reps;
  };
  const std::uint64_t flows = quick ? 2'000'000 : 20'000'000;
  const std::uint64_t lookups = quick ? 2'000'000 : 10'000'000;
  traffic::FlowGenParams flash = bench::steering_flows();
  flash.pattern = traffic::TemporalPattern::kFlashCrowd;
  flash.crowd.burst_start = flows / 2;
  flash.crowd.burst_len = flows / 4;
  std::vector<Scenario> scenarios = {
      {"l1_hit_stream", "lines", bench::run_l1_hit_stream, reps},
      {"l1_hit_stream_reference", "lines",
       bench::run_l1_hit_stream_reference, reps},
      {"l1_lru_churn", "lines", bench::run_l1_lru_churn, reps},
      {"llc_miss_stream", "lines", bench::run_llc_miss_stream,
       quick ? 4 : 40},
      {"prefetch_heavy", "lines", bench::run_prefetch_heavy,
       quick ? 20 : 200},
      {"llc_compute_phase", "lines", bench::run_llc_compute_phase, 2000},
      {"coherent_4core_mix", "lines", bench::run_coherent_4core_mix,
       quick ? 20 : 200},
      {"match_list_walk", "lines", bench::run_match_list_walk,
       quick ? 200 : 2000},
      {"traffic_zipf_build", "ranks",
       [quick](const Meter& m) {
         return bench::run_zipf_build(
             m, quick ? std::uint64_t{1} << 20 : 10'000'000);
       },
       1},
      {"traffic_gen_zipf", "flows",
       [flows](const Meter& m) {
         return bench::run_flow_gen(m, bench::steering_flows(), flows);
       },
       1},
      {"traffic_gen_flash", "flows",
       [flows, flash](const Meter& m) {
         return bench::run_flow_gen(m, flash, flows);
       },
       1},
      {"traffic_steer", "lookups",
       [lookups](const Meter& m) {
         return bench::run_steer(m, lookups, /*admission=*/false);
       },
       1},
      {"traffic_steer_admission", "lookups",
       [lookups](const Meter& m) {
         return bench::run_steer(m, lookups, /*admission=*/true);
       },
       1},
  };
  // A queue row's reps shrink with its depth, which sets an op's cost.
  for (const char* label :
       {"baseline", "lla-2", "lla-8", "lla-32", "ompi-64", "hash-256"}) {
    for (const std::size_t depth :
         quick ? std::vector<std::size_t>{0, 256}
               : std::vector<std::size_t>{0, 16, 256, 4096}) {
      scenarios.push_back(
          {"queue_" + std::string(label) + "_d" + std::to_string(depth),
           "matches",
           [queue = std::string(label), depth](const Meter& m) {
             return bench::run_queue(m, queue, depth);
           },
           static_cast<int>((quick ? 1000 : 10000) / (1 + depth / 64))});
    }
  }
  scenarios.push_back({"native_heater_pass", "lines",
                       bench::run_native_heater_pass, quick ? 2000 : 20000});

  // Which probe backend this binary measured: CI's perf-smoke steps assert
  // a Release build reports a vector backend, not the scalar fallback.
  bench::report_label("simd_backend", simd::backend());

  Table table({"scenario", "unit", "items", "seconds", "M/s", "reps"});
  // Every run's profile, auto-scale reruns included.
  obs::ProfSnapshot profile;
  double soa_rate = 0;
  double ref_rate = 0;
  for (const auto& s : scenarios) {
    if (!bench::panel_enabled(s.name)) continue;
    // One counter group per scenario, enabled around every timed loop
    // (the auto-scale reruns included; the last run's reading is
    // reported, matching the reported score). When the group cannot open
    // the run proceeds and the report says "hw_counters": "unavailable".
    obs::PerfCounters pc;
    const auto run_counted = [&](int n) {
      Score sc = s.run(Meter{n, &pc});
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
    table.add_row({s.name, s.unit, Table::num(score.items),
                   Table::num(score.seconds, 3),
                   Table::num(score.per_sec() / 1e6, 1),
                   Table::num(static_cast<std::int64_t>(reps))});
    bench::report_metric(s.name + "_" + s.unit + "_per_sec", score.per_sec());
    bench::report_metric(s.name + "_reps", reps);
    if (pc.ok())
      bench::report_hw_counters(s.name, score.hw);
    else
      bench::report_hw_unavailable(pc.error());
    if (score.sim_miss_rate >= 0.0) {
      bench::report_metric(s.name + "_sim_miss_rate", score.sim_miss_rate);
      if (score.hw.has_llc_loads() && score.hw.has_llc_load_misses())
        bench::report_metric(s.name + "_miss_rate_delta",
                             score.hw.llc_miss_rate() - score.sim_miss_rate);
    }
    if (score.search_depth >= 0.0)
      bench::report_metric(s.name + "_search_depth", score.search_depth);
    if (s.name == "l1_hit_stream") soa_rate = score.per_sec();
    if (s.name == "l1_hit_stream_reference") ref_rate = score.per_sec();
  }
  if (soa_rate > 0 && ref_rate > 0)
    bench::report_metric("l1_hit_stream_speedup_vs_reference",
                         soa_rate / ref_rate);
  bench::emit_rows("self-performance", table, cli.flag("csv"));
  bench::run_contention_panel(quick, cli.flag("csv"));
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
