#include "workloads/osu.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "cachesim/heater.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/mem_model.hpp"
#include "common/assert.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace semperm::workloads {

std::string heater_mode_name(HeaterMode mode) {
  switch (mode) {
    case HeaterMode::kOff:
      return "off";
    case HeaterMode::kPerElement:
      return "HC";
    case HeaterMode::kPooled:
      return "HC+pool";
  }
  return "?";
}

namespace {

/// Tags are partitioned so pre-populated entries can never match traffic.
constexpr std::int32_t kUnmatchedTagBase = 1'000'000;
constexpr std::int16_t kSenderRank = 1;
constexpr std::int16_t kNobodyRank = 2;

/// Everything one OSU run needs, wired together.
struct Bench {
  cachesim::Hierarchy hier;
  cachesim::SimMem mem;
  memlayout::AddressSpace space;
  match::EngineBundle<cachesim::SimMem> bundle;
  std::unique_ptr<cachesim::SimHeater> heater;
  std::vector<match::MatchRequest> depth_requests;
  const OsuParams& params;
  // Registry handles are stable for the process lifetime; cache them so
  // per-iteration updates skip the by-name lookup.
  obs::Counter& iterations_metric =
      obs::MetricsRegistry::global().counter("osu.iterations");
  obs::Gauge& heated_lines_metric =
      obs::MetricsRegistry::global().gauge("osu.llc_heated_lines");
  obs::Histogram& match_cycles_hist =
      obs::MetricsRegistry::global().histogram("match.iteration_cycles",
                                               /*bucket_width=*/64);
  std::uint64_t iteration_no = 0;
  std::unique_ptr<fault::FaultInjector> injector;
  std::uint64_t wire_seq = 0;
  std::uint64_t stalled_refreshes = 0;

  explicit Bench(const OsuParams& p)
      : hier(p.arch), mem(hier), bundle(make_bundle(p)), params(p) {
    if (p.fault != nullptr && p.fault->any_active())
      injector = std::make_unique<fault::FaultInjector>(*p.fault);
    // Hardware-supported locality (§6 extension): when the profile
    // configures a network cache or an LLC partition, tag the matching
    // engine's storage as network data.
    if (p.arch.network_cache.present() || p.arch.llc_reserved_ways > 0)
      hier.mark_network_region(bundle.arena->sim_base(),
                               bundle.arena->capacity());

    // Pre-populate the PRQ with unmatched receives (§4.1 modification 4).
    depth_requests.resize(p.queue_depth);
    for (std::size_t i = 0; i < p.queue_depth; ++i) {
      depth_requests[i] =
          match::MatchRequest(match::RequestKind::kRecv, i);
      match::MatchRequest* m = bundle->post_recv(
          match::Pattern::make(kNobodyRank,
                               kUnmatchedTagBase + static_cast<std::int32_t>(i),
                               /*ctx=*/0),
          &depth_requests[i]);
      SEMPERM_ASSERT(m == nullptr);
    }

    if (p.heater != HeaterMode::kOff) {
      cachesim::SimHeaterConfig hc;
      hc.capacity_bytes = p.heater_capacity_bytes;
      heater = std::make_unique<cachesim::SimHeater>(hier, hc);
      if (p.heater == HeaterMode::kPooled) {
        // The dedicated element pool is registered once: one region
        // covering the arena's carved storage.
        heater->register_region(bundle.arena->sim_base(),
                                std::max<std::size_t>(bundle.arena->used(), 1));
      } else {
        // Per-element hot caching: every queue element is its own region,
        // and steady-state traffic keeps mutating the registry.
        const std::size_t node = 4 * kCacheLine;  // baseline node granularity
        const std::size_t used = bundle.arena->used();
        for (std::size_t off = 0; off < used; off += node)
          heater->register_region(bundle.arena->sim_base() + off,
                                  std::min(node, used - off));
      }
    }
  }

  match::EngineBundle<cachesim::SimMem> make_bundle(const OsuParams& p) {
    match::QueueConfig cfg = p.queue;
    // A non-default --seed re-salts the arena layout so seed sweeps explore
    // independent address placements; the default leaves layout_seed alone.
    cfg.layout_seed ^= p.seed ^ kOsuDefaultSeed;
    return match::make_engine(mem, space, cfg);
  }

  /// Application-side heater overhead for one queue mutation.
  void charge_heater_mutation() {
    if (params.heater == HeaterMode::kPerElement)
      mem.work(heater->mutation_cost());
  }

  void begin_iteration() {
    ++iteration_no;
    SEMPERM_TRACE_INSTANT(obs::Category::kApp, "iteration", 0, iteration_no,
                          0.0);
    if (params.clear_cache_between_iterations) {
      SEMPERM_TRACE_SPAN_BEGIN(obs::Category::kApp, "compute_phase", 0,
                               params.compute_working_set_bytes);
      if (params.compute_working_set_bytes == 0)
        hier.flush_all();
      else
        hier.pollute(params.compute_working_set_bytes);
      SEMPERM_TRACE_SPAN_END(obs::Category::kApp, "compute_phase", 0,
                             params.compute_working_set_bytes, 0.0);
    }
    // The heater ran during the emulated compute phase: by the time the
    // communication phase starts, registered regions are LLC-resident
    // again (up to the heater's capacity budget) — unless a stall roll
    // says this pass never finished, in which case the communication
    // phase inherits the cold cache.
    if (heater) {
      if (injector && injector->heater_stall_ns(iteration_no) > 0)
        ++stalled_refreshes;
      else
        heater->refresh();
    }
    iterations_metric.add(1);
    heated_lines_metric.set(static_cast<double>(
        hier.level(hier.level_count() - 1)
            .resident_lines_filled_by(cachesim::FillReason::kHeater)));
    SEMPERM_TRACE_ONLY(if (obs::trace_on()) {
      obs::MetricsRegistry::global().sample(obs::sim_now());
      hier.trace_sample_occupancy(obs::sim_now());
    })
  }

  /// Extra wire time for one message under the chaos plan. A drop is
  /// re-rolled along the transport's attempt chain: each failed attempt
  /// costs a retransmit timeout plus the retransfer (decide() forces
  /// delivery at max_drop_attempts, so the loop terminates). A surviving
  /// duplicate puts one extra copy on the wire; a delay spike lands as-is.
  double fault_wire_extra_ns(double per_msg_wire_ns) {
    if (!injector) return 0.0;
    double extra = 0.0;
    const std::uint64_t seq = ++wire_seq;
    fault::FaultDecision d = injector->decide(kSenderRank, 0, seq, 0);
    std::uint32_t attempt = 0;
    while (d.drop) {
      extra += static_cast<double>(params.retransmit_timeout_ns) +
               per_msg_wire_ns + params.net.latency_ns;
      d = injector->decide(kSenderRank, 0, seq, ++attempt);
    }
    if (d.duplicate) extra += per_msg_wire_ns;
    extra += static_cast<double>(d.delay_ns);
    return extra;
  }
};

OsuResult finish(const Bench& bench, const RunningStats& iter_time_ns,
                 const RunningStats& match_ns, std::size_t msgs_per_iter,
                 std::size_t bytes_per_iter) {
  OsuResult r;
  const double mean_iter_ns = iter_time_ns.mean();
  r.bandwidth_mibps = static_cast<double>(bytes_per_iter) /
                      (mean_iter_ns * 1e-9) / (1024.0 * 1024.0);
  r.msg_time_ns = mean_iter_ns / static_cast<double>(msgs_per_iter);
  r.match_ns_per_msg = match_ns.mean();
  const auto& prq_stats = bench.bundle->prq().stats();
  r.mean_search_depth = prq_stats.mean_inspected();
  const auto& hs = bench.hier.stats();
  r.dram_fetches_per_msg =
      static_cast<double>(hs.dram_fetches) /
      std::max<double>(1.0, static_cast<double>(prq_stats.searches));
  const auto& llc = bench.hier.level(bench.hier.level_count() - 1).stats();
  r.llc_hit_rate = llc.hit_rate();
  r.hier = hs;  // includes per-level summaries (prefetch coverage, writebacks)
  if (bench.injector) r.faults = bench.injector->stats();
  r.stalled_refreshes = bench.stalled_refreshes;
  return r;
}

}  // namespace

OsuResult run_osu_bw(const OsuParams& params) {
  SEMPERM_ASSERT(params.window > 0 && params.iterations > 0);
  Bench bench(params);

  RunningStats iter_time_ns;
  RunningStats match_ns_per_msg;
  std::vector<match::MatchRequest> recvs(params.window);
  std::vector<match::MatchRequest> msgs(params.window);

  const std::size_t total_iters = params.warmup_iterations + params.iterations;
  for (std::size_t it = 0; it < total_iters; ++it) {
    const bool measured = it >= params.warmup_iterations;
    if (measured && it == params.warmup_iterations) {
      bench.hier.reset_stats();
      bench.bundle->prq().reset_stats();
    }
    bench.begin_iteration();

    const Cycles mark = bench.mem.cycles();
    // Pre-post the window's receives (barrier semantics), then process the
    // window's arrivals in order.
    for (std::size_t m = 0; m < params.window; ++m) {
      recvs[m] = match::MatchRequest(match::RequestKind::kRecv, m);
      match::MatchRequest* hit = bench.bundle->post_recv(
          match::Pattern::make(kSenderRank, static_cast<std::int32_t>(m), 0),
          &recvs[m]);
      SEMPERM_ASSERT(hit == nullptr);
      bench.charge_heater_mutation();
    }
    for (std::size_t m = 0; m < params.window; ++m) {
      msgs[m] = match::MatchRequest(match::RequestKind::kUnexpected, m);
      match::MatchRequest* recv = bench.bundle->incoming(
          match::Envelope{static_cast<std::int32_t>(m), kSenderRank, 0},
          &msgs[m]);
      SEMPERM_ASSERT_MSG(recv != nullptr, "pre-posted receive must match");
      bench.charge_heater_mutation();
    }
    const Cycles match_cycles = bench.mem.cycles() - mark;

    const double cpu_ns =
        params.arch.cycles_to_ns(match_cycles) +
        static_cast<double>(params.window) * params.arch.sw_overhead_ns;
    const double per_msg_wire_ns =
        static_cast<double>(params.msg_bytes) / params.net.bandwidth_bytes_per_ns;
    const double wire_ns = static_cast<double>(params.window) * per_msg_wire_ns;
    double chaos_ns = 0.0;
    if (bench.injector)
      for (std::size_t m = 0; m < params.window; ++m)
        chaos_ns += bench.fault_wire_extra_ns(per_msg_wire_ns);
    const double iter_ns =
        params.net.latency_ns + std::max(cpu_ns, wire_ns) + chaos_ns;
    if (measured) {
      iter_time_ns.add(iter_ns);
      match_ns_per_msg.add(params.arch.cycles_to_ns(match_cycles) /
                           static_cast<double>(params.window));
      bench.match_cycles_hist.add(match_cycles);
    }
  }

  return finish(bench, iter_time_ns, match_ns_per_msg, params.window,
                params.window * params.msg_bytes);
}

}  // namespace semperm::workloads
