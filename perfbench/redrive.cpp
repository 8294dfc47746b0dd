// The traced re-drives: each entry point's loop rebuilt from the layers'
// public calls, with every call wrapped in a span. Each re-drive follows
// its entry point statement by statement (same constructors, same calls,
// same order, same randomness), so it reproduces the entry point's
// modeled outputs bit for bit; run.py refuses per-layer numbers for any
// call where it does not.
//
// The mirrored sources are src/workloads/app_model.cpp,
// src/motifs/mt_decomp.cpp and src/traffic/steering.cpp. A change to one
// of those loops must change its re-drive here with it.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "cachesim/heater.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/mem_model.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "match/factory.hpp"
#include "obs/metrics.hpp"
#include "resilience/admission.hpp"
#include "resilience/backpressure.hpp"
#include "resilience/degradation.hpp"
#include "traffic/flow_gen.hpp"
#include "traffic/flow_table.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace semperm;

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("re-drive diverged: ") + what);
}

/// LLC demand hits and misses of a single-core hierarchy.
std::pair<std::uint64_t, std::uint64_t> llc_counts(const cachesim::Hierarchy& h) {
  const auto& st = h.level(h.level_count() - 1).stats();
  return {st.demand_hits, st.demand_misses};
}

/// Lines one refresh() will budget: the capacity share it covers, bounded
/// by what is registered.
double budgeted_lines(const cachesim::SimHeater& h) {
  const double bytes =
      std::min(static_cast<double>(h.capacity_bytes()) * h.coverage(),
               static_cast<double>(h.registered_bytes()));
  return bytes / static_cast<double>(kCacheLine);
}

// --- app_model (src/workloads/app_model.cpp) ---------------------------

constexpr std::int32_t kStandingTagBase = 1'000'000;
constexpr std::int16_t kPeerRank = 1;
constexpr std::int16_t kNobodyRank = 2;

Fields redrive_app(const workloads::AppModelParams& params, Tracer& tr,
                   Fields& counts, bool setup_only) {
  using workloads::HeaterMode;
  auto hier_owner = tr.time(kHierSetup, [&] {
    return std::make_unique<cachesim::Hierarchy>(params.arch);
  });
  cachesim::Hierarchy& hier = *hier_owner;
  cachesim::SimMem mem(hier);
  memlayout::AddressSpace space;
  auto bundle =
      tr.time(kMatchSetup, [&] { return match::make_engine(mem, space, params.queue); });
  Rng rng(params.seed);

  std::vector<match::MatchRequest> standing(params.standing_depth);
  for (std::size_t i = 0; i < params.standing_depth; ++i) {
    standing[i] = match::MatchRequest(match::RequestKind::kRecv, i);
    match::MatchRequest* hit = tr.time(kPostRecv, [&] {
      return bundle->post_recv(
          match::Pattern::make(kNobodyRank,
                               kStandingTagBase + static_cast<std::int32_t>(i), 0),
          &standing[i]);
    });
    require(hit == nullptr, "standing receive matched");
  }

  std::unique_ptr<cachesim::SimHeater> heater;
  if (params.heater != HeaterMode::kOff) {
    tr.time(kHeaterSetup, [&] {
      cachesim::SimHeaterConfig hc;
      hc.race_with_pollution = params.cold_cache_per_message;
      hc.scan_cost_per_region = params.heater_scan_cost;
      heater = std::make_unique<cachesim::SimHeater>(hier, hc);
      heater->register_region(bundle.arena->sim_base(),
                              std::max<std::size_t>(bundle.arena->used(), 1));
      if (params.heater == HeaterMode::kPerElement) {
        const std::size_t node = 4 * kCacheLine;
        for (std::size_t i = 0; i + 1 < params.standing_depth; ++i)
          heater->register_region(bundle.arena->sim_base() + i * node, node);
      }
    });
  }
  tr.mark_setup_done();
  if (setup_only) return {};

  double refetched = 0.0;
  double budgeted = 0.0;
  const auto compute_phase = [&] {
    if (params.compute_working_set_bytes == 0)
      tr.time(kFlushAll, [&] { hier.flush_all(); });
    else
      tr.time(kPollute, [&] { hier.pollute(params.compute_working_set_bytes); });
    if (heater) {
      budgeted += budgeted_lines(*heater);
      refetched += static_cast<double>(
          tr.time(kHeaterRefresh, [&] { return heater->refresh(); }));
    }
  };

  std::vector<match::MatchRequest> recvs(params.messages_per_phase);
  std::vector<match::MatchRequest> msgs(params.messages_per_phase);
  double total_match_ns = 0.0;
  for (std::size_t phase = 0; phase < params.phases; ++phase) {
    compute_phase();
    const Cycles mark = mem.cycles();
    for (std::size_t m = 0; m < params.messages_per_phase; ++m) {
      recvs[m] = match::MatchRequest(match::RequestKind::kRecv, m);
      match::MatchRequest* hit = tr.time(kPostRecv, [&] {
        return bundle->post_recv(
            match::Pattern::make(kPeerRank, static_cast<std::int32_t>(m), 0),
            &recvs[m]);
      });
      require(hit == nullptr, "phase receive matched early");
      if (params.heater == HeaterMode::kPerElement)
        mem.work(heater->mutation_cost());
    }
    std::vector<std::size_t> order(params.messages_per_phase);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto disordered = static_cast<std::size_t>(
        params.match_disorder * static_cast<double>(order.size()));
    if (disordered > 1) {
      std::vector<std::size_t> window(
          order.end() - static_cast<std::ptrdiff_t>(disordered), order.end());
      rng.shuffle(window);
      std::copy(window.begin(), window.end(),
                order.end() - static_cast<std::ptrdiff_t>(disordered));
    }
    for (std::size_t idx : order) {
      if (params.cold_cache_per_message) {
        const Cycles before = mem.cycles();
        compute_phase();
        require(mem.cycles() == before, "compute slice charged match time");
      }
      msgs[idx] = match::MatchRequest(match::RequestKind::kUnexpected, idx);
      match::MatchRequest* recv = tr.time(kIncoming, [&] {
        return bundle->incoming(
            match::Envelope{static_cast<std::int32_t>(idx), kPeerRank, 0},
            &msgs[idx]);
      });
      require(recv != nullptr, "arrival found no receive");
      if (params.heater == HeaterMode::kPerElement)
        mem.work(heater->mutation_cost());
    }
    total_match_ns += params.arch.cycles_to_ns(mem.cycles() - mark);
  }

  const double msgs_total = static_cast<double>(params.phases) *
                            static_cast<double>(params.messages_per_phase);
  const double sw_ns = msgs_total * params.arch.sw_overhead_ns;
  const double wire_ns = msgs_total * params.net.transfer_ns(params.msg_bytes) *
                         (1.0 - params.comm_overlap);
  workloads::AppModelResult result;
  double match_total_ns = total_match_ns;
  double compute_total_ns =
      static_cast<double>(params.phases) * params.compute_ns_per_phase;
  if (heater && params.cold_cache_per_message) {
    // run_app_model's post-hoc heater-interference scaling.
    const double duty = heater->duty();
    compute_total_ns *= 1.0 + duty * params.heater_interference;
    match_total_ns *= 1.0 + duty * params.heater_interference * 0.5;
  }
  result.match_s = match_total_ns * 1e-9;
  result.comm_s = (match_total_ns + sw_ns + wire_ns) * 1e-9;
  result.compute_s = compute_total_ns * 1e-9;
  result.runtime_s = result.compute_s + result.comm_s;
  result.mean_search_depth = bundle->prq().stats().mean_inspected();

  const auto& hs = hier.stats();
  const auto [llc_hits, llc_misses] = llc_counts(hier);
  const double inspected =
      static_cast<double>(bundle->prq().stats().entries_inspected +
                          bundle->umq().stats().entries_inspected);
  counts = {{"sim_accesses", static_cast<double>(hs.lines_touched)},
            {"match_sim_accesses", static_cast<double>(hs.lines_touched)},
            {"simulate_lines", 0.0},
            {"llc_hits", static_cast<double>(llc_hits)},
            {"llc_misses", static_cast<double>(llc_misses)},
            {"lines_refetched", refetched},
            {"lines_budgeted", budgeted},
            {"entries_inspected", inspected}};
  return fields_of(result);
}

// --- mt_decomp (src/motifs/mt_decomp.cpp) ------------------------------

constexpr Addr kShadowLockLine = Addr{1} << 30;
constexpr Addr kShadowEntryBase = (Addr{1} << 30) + 16;

Fields redrive_mt(const motifs::MtDecompParams& params, Tracer& tr,
                  Fields& counts, bool setup_only) {
  const motifs::DecompAnalysis analysis = tr.time(
      kAnalyze, [&] { return motifs::analyze_decomposition(params.grid, params.stencil); });
  motifs::MtDecompResult result;
  result.grid = params.grid;
  result.stencil = params.stencil;
  result.tr = analysis.tr;
  result.ts = analysis.ts;
  result.length = analysis.length;

  Rng trial_rng(params.seed);
  RunningStats depth_over_trials;
  constexpr std::int16_t kProxyRank = 1;

  std::unique_ptr<coherence::CoherentHierarchy> coh;
  unsigned ncores = 1;
  if (params.model_coherence) {
    ncores = params.cores != 0 ? params.cores
                               : std::min(params.arch.cores_per_socket, 64u);
    ncores = std::max(1u, std::min(ncores, 64u));
    coh = tr.time(kCohSetup, [&] {
      return std::make_unique<coherence::CoherentHierarchy>(params.arch, ncores);
    });
  }
  tr.mark_setup_done();
  if (setup_only) return {};
  const auto core_of = [&](int recv_cell) {
    return static_cast<unsigned>(recv_cell) % ncores;
  };
  const auto access = [&](unsigned core, Addr line, bool write) {
    return tr.time(write ? kAccessWrite : kAccessRead,
                   [&] { return coh->access_line(core, line, write); });
  };
  int lock_holder = -1;
  std::uint64_t lock_transfers = 0;
  std::uint64_t coh_ops = 0;
  Cycles coh_cycles = 0;
  std::uint64_t inspected_total = 0;

  for (int trial = 0; trial < params.trials; ++trial) {
    Rng rng = trial_rng.fork();
    NativeMem mem;
    memlayout::AddressSpace space;
    auto bundle =
        tr.time(kMatchSetup, [&] { return match::make_engine(mem, space, params.queue); });

    std::vector<std::vector<int>> by_recv_thread;
    {
      std::map<int, std::vector<int>> groups;
      for (std::size_t i = 0; i < analysis.edges.size(); ++i)
        groups[analysis.edges[i].recv_cell].push_back(static_cast<int>(i));
      for (auto& [cell, edges] : groups) by_recv_thread.push_back(std::move(edges));
    }
    rng.shuffle(by_recv_thread);
    std::vector<int> post_order;
    post_order.reserve(analysis.edges.size());
    for (const auto& burst : by_recv_thread)
      post_order.insert(post_order.end(), burst.begin(), burst.end());

    if (coh) {
      tr.time(kCohFlushAll, [&] { coh->flush_all(); });
      lock_holder = -1;
    }
    std::vector<int> shadow_list;
    shadow_list.reserve(analysis.edges.size());
    const auto charge_lock = [&](unsigned core) {
      coh_cycles += access(core, kShadowLockLine, /*write=*/true);
      if (lock_holder >= 0 && lock_holder != static_cast<int>(core))
        ++lock_transfers;
      lock_holder = static_cast<int>(core);
    };

    std::vector<match::MatchRequest> requests(analysis.edges.size());
    for (int idx : post_order) {
      const motifs::ExternalEdge& e = analysis.edges[static_cast<std::size_t>(idx)];
      requests[static_cast<std::size_t>(idx)] = match::MatchRequest(
          match::RequestKind::kRecv, static_cast<std::uint64_t>(idx));
      match::MatchRequest* matched = tr.time(kPostRecv, [&] {
        return bundle->post_recv(
            match::Pattern::make(kProxyRank, e.sender_id, /*ctx=*/0),
            &requests[static_cast<std::size_t>(idx)]);
      });
      require(matched == nullptr, "receive matched before any send");
      if (coh) {
        const unsigned c = core_of(e.recv_cell);
        charge_lock(c);
        coh_cycles += access(c, kShadowEntryBase + static_cast<Addr>(idx),
                             /*write=*/true);
        shadow_list.push_back(idx);
        ++coh_ops;
      }
    }
    require(bundle->prq().size() == static_cast<std::size_t>(analysis.length),
            "posted list length differs from the analysis");

    std::vector<std::vector<int>> by_send_thread;
    {
      std::map<int, std::vector<int>> groups;
      for (std::size_t i = 0; i < analysis.edges.size(); ++i)
        groups[analysis.edges[i].sender_id].push_back(static_cast<int>(i));
      for (auto& [sender, edges] : groups) by_send_thread.push_back(std::move(edges));
    }
    rng.shuffle(by_send_thread);
    std::vector<int> send_order;
    send_order.reserve(analysis.edges.size());
    for (const auto& burst : by_send_thread)
      send_order.insert(send_order.end(), burst.begin(), burst.end());
    if (params.send_interleave > 0.0 && send_order.size() > 1) {
      std::vector<std::size_t> displaced;
      for (std::size_t i = 0; i < send_order.size(); ++i)
        if (rng.chance(params.send_interleave)) displaced.push_back(i);
      std::vector<int> values;
      values.reserve(displaced.size());
      for (std::size_t i : displaced) values.push_back(send_order[i]);
      rng.shuffle(values);
      for (std::size_t j = 0; j < displaced.size(); ++j)
        send_order[displaced[j]] = values[j];
    }
    inspected_total += bundle->prq().stats().entries_inspected +
                       bundle->umq().stats().entries_inspected;
    bundle->prq().reset_stats();
    std::vector<match::MatchRequest> messages(analysis.edges.size());
    for (int idx : send_order) {
      const motifs::ExternalEdge& e = analysis.edges[static_cast<std::size_t>(idx)];
      messages[static_cast<std::size_t>(idx)] = match::MatchRequest(
          match::RequestKind::kUnexpected, static_cast<std::uint64_t>(idx));
      const std::uint64_t inspected_before =
          coh ? bundle->prq().stats().entries_inspected : 0;
      match::MatchRequest* recv = tr.time(kIncoming, [&] {
        return bundle->incoming(
            match::Envelope{e.sender_id, kProxyRank, /*ctx=*/0},
            &messages[static_cast<std::size_t>(idx)]);
      });
      require(recv != nullptr, "message found no receive");
      if (coh) {
        const std::uint64_t inspected =
            bundle->prq().stats().entries_inspected - inspected_before;
        const int midx = static_cast<int>(recv - requests.data());
        const unsigned c =
            core_of(analysis.edges[static_cast<std::size_t>(midx)].recv_cell);
        charge_lock(c);
        std::uint64_t walked = 0;
        for (int j : shadow_list) {
          if (walked >= inspected) break;
          ++walked;
          coh_cycles += access(c, kShadowEntryBase + static_cast<Addr>(j),
                               /*write=*/false);
        }
        shadow_list.erase(std::find(shadow_list.begin(), shadow_list.end(), midx));
        coh_cycles += access(c, kShadowEntryBase + static_cast<Addr>(midx),
                             /*write=*/true);
        ++coh_ops;
      }
    }
    require(bundle->prq().size() == 0, "receives left unmatched");
    inspected_total += bundle->prq().stats().entries_inspected +
                       bundle->umq().stats().entries_inspected;
    depth_over_trials.add(bundle->prq().stats().mean_inspected());
  }

  result.mean_search_depth = depth_over_trials.mean();
  result.stddev_search_depth = depth_over_trials.stddev();
  if (coh && coh_ops > 0) {
    result.mean_cycles_per_op =
        static_cast<double>(coh_cycles) / static_cast<double>(coh_ops);
    result.lock_transfers_per_op =
        static_cast<double>(lock_transfers) / static_cast<double>(coh_ops);
    result.coherence = coh->coherence_stats();
    result.coherence.lock_transfers = lock_transfers;
  }

  double sim_accesses = 0.0;
  double llc_hits = 0.0;
  double llc_misses = 0.0;
  if (coh) {
    for (unsigned c = 0; c < coh->cores(); ++c)
      sim_accesses += static_cast<double>(coh->core_stats(c).lines_touched);
    if (const auto* llc = coh->llc()) {
      llc_hits = static_cast<double>(llc->stats().demand_hits);
      llc_misses = static_cast<double>(llc->stats().demand_misses);
    } else {
      // KNL has no shared L3: its per-core L2s are the last level.
      for (unsigned c = 0; c < coh->cores(); ++c) {
        llc_hits += static_cast<double>(coh->l2(c).stats().demand_hits);
        llc_misses += static_cast<double>(coh->l2(c).stats().demand_misses);
      }
    }
  }
  const coherence::CoherenceStats& cs = result.coherence;
  counts = {{"sim_accesses", sim_accesses},
            {"match_sim_accesses", 0.0},
            {"simulate_lines", 0.0},
            {"llc_hits", llc_hits},
            {"llc_misses", llc_misses},
            {"lines_refetched", 0.0},
            {"lines_budgeted", 0.0},
            {"entries_inspected", static_cast<double>(inspected_total)},
            {"invalidations", static_cast<double>(cs.invalidations)},
            {"interventions", static_cast<double>(cs.interventions)},
            {"back_invalidations", static_cast<double>(cs.back_invalidations)},
            {"upgrades", static_cast<double>(cs.upgrades)}};
  return fields_of(result);
}

// --- steering (src/traffic/steering.cpp) -------------------------------

constexpr std::int32_t kRuleTagBase = 1'000'000;
constexpr std::int16_t kRuleRank = 2;
constexpr std::int32_t kProbeRank = 3;
constexpr std::int32_t kProbeTag = 7;
constexpr std::int32_t kPendingRank = 5;
constexpr std::int32_t kPendingTagBase = 2'000'000;

Fields redrive_steering(const traffic::SteeringParams& p, Tracer& tr,
                        Fields& counts, bool setup_only) {
  require(p.fault == nullptr || !p.fault->any_active(),
          "the benchmark runs steering without a chaos plan");
  auto hier_owner = tr.time(kHierSetup, [&] {
    return std::make_unique<cachesim::Hierarchy>(p.arch);
  });
  cachesim::Hierarchy& hier = *hier_owner;
  cachesim::SimMem mem(hier);
  memlayout::AddressSpace space;

  match::QueueConfig qcfg;
  qcfg.arena_bytes = std::size_t{1} << 20;
  qcfg.layout_seed ^= p.gen.seed ^ traffic::kTrafficDefaultSeed;
  auto bundle = tr.time(kMatchSetup, [&] { return match::make_engine(mem, space, qcfg); });
  std::vector<match::MatchRequest> rule_reqs(p.rules);
  for (std::size_t i = 0; i < p.rules; ++i) {
    rule_reqs[i] = match::MatchRequest(match::RequestKind::kUnexpected, i);
    match::MatchRequest* hit = tr.time(kIncoming, [&] {
      return bundle->incoming(
          match::Envelope{kRuleTagBase + static_cast<std::int32_t>(i), kRuleRank, 0},
          &rule_reqs[i]);
    });
    require(hit == nullptr, "rule entry matched");
  }
  const match::Pattern miss_pattern = match::Pattern::make(kProbeRank, kProbeTag, 0);

  using Bundle = decltype(bundle);
  Bundle essential{};
  Bundle pending{};
  std::vector<match::MatchRequest> ess_reqs;
  std::vector<match::MatchRequest> pending_recvs;
  std::vector<match::MatchRequest> pending_msgs;
  std::unique_ptr<resilience::AdmissionFilter> filter;
  std::optional<resilience::BackpressureValve> valve;
  std::unique_ptr<resilience::DegradationManager> ladder;
  if (p.res.enabled) {
    match::QueueConfig ecfg = qcfg;
    ecfg.layout_seed ^= 0xe55e7a1ULL;
    essential = tr.time(kMatchSetup, [&] { return match::make_engine(mem, space, ecfg); });
    const std::size_t ess_rules = std::min(p.rules, p.res.essential_rules);
    ess_reqs.resize(ess_rules);
    for (std::size_t i = 0; i < ess_rules; ++i) {
      ess_reqs[i] = match::MatchRequest(match::RequestKind::kUnexpected, i);
      match::MatchRequest* hit = tr.time(kIncoming, [&] {
        return essential->incoming(
            match::Envelope{kRuleTagBase + static_cast<std::int32_t>(i), kRuleRank, 0},
            &ess_reqs[i]);
      });
      require(hit == nullptr, "essential rule matched");
    }
    match::QueueConfig pcfg = qcfg;
    pcfg.layout_seed ^= 0x9e4d177ULL;
    pending = tr.time(kMatchSetup, [&] { return match::make_engine(mem, space, pcfg); });
    pending_recvs.resize(p.res.queue_capacity);
    pending_msgs.resize(p.res.queue_capacity);
    tr.time(kResSetup, [&] {
      if (p.res.admission_on) {
        resilience::AdmissionConfig acfg;
        acfg.seed = p.gen.seed ^ 0xad3155f1ULL;
        acfg.age_period = p.res.admission_age_period != 0
                              ? p.res.admission_age_period
                              : p.epoch_packets;
        filter = std::make_unique<resilience::AdmissionFilter>(acfg);
      }
      valve.emplace(p.res.queue_high, p.res.queue_low);
      if (p.res.ladder_on) {
        resilience::DegradationConfig dcfg;
        dcfg.degrade_after_checks = p.res.degrade_after_checks;
        dcfg.recover_after_checks = p.res.recover_after_checks;
        dcfg.probation_checks = p.res.probation_checks;
        dcfg.miss_rate_high = p.res.miss_rate_high;
        ladder = std::make_unique<resilience::DegradationManager>(dcfg);
      }
    });
  }

  auto table_owner = tr.time(kTableSetup, [&] {
    traffic::FlowTableConfig tcfg = traffic::auto_geometry(p.gen.flows, p.table_ways);
    if (p.table_slots != 0) tcfg.slots = p.table_slots;
    tcfg.salt ^= p.gen.seed;
    auto t = std::make_unique<traffic::FlowTable>(tcfg);
    t->attach_sim(space);
    return t;
  });
  traffic::FlowTable& table = *table_owner;
  table.set_admission(filter.get());

  std::unique_ptr<cachesim::SimHeater> heater;
  std::size_t rules_region_handle = 0;
  bool rules_region_live = false;
  if (p.heater_on) {
    tr.time(kHeaterSetup, [&] {
      cachesim::SimHeaterConfig hc;
      hc.capacity_bytes = p.heater_capacity_bytes;
      hc.period_ns = p.heater_period_ns;
      hc.refresh_window_ns = p.heater_refresh_window_ns;
      heater = std::make_unique<cachesim::SimHeater>(hier, hc);
      heater->register_region(table.sim_first_line() * kCacheLine,
                              table.storage_bytes());
      rules_region_handle = heater->register_region(
          bundle.arena->sim_base(), std::max<std::size_t>(bundle.arena->used(), 1));
    });
    rules_region_live = true;
  }

  // The entry point's registry handles and per-packet metric updates: not
  // modeled output, but host work the entry point does.
  obs::Gauge& live_flows_metric =
      obs::MetricsRegistry::global().gauge("traffic.live_flows");
  obs::Counter& packets_metric = obs::MetricsRegistry::global().counter("traffic.packets");
  obs::Histogram& miss_walk_hist = obs::MetricsRegistry::global().histogram(
      "match.miss_walk_cycles", /*bucket_width=*/64);
  obs::Histogram& steer_chunk_hist = obs::MetricsRegistry::global().histogram(
      "traffic.steer_chunk_lines", /*bucket_width=*/1);
  obs::Gauge& queue_depth_metric =
      obs::MetricsRegistry::global().gauge("resilience.queue_depth");

  auto gen_owner = tr.time(kGenSetup, [&] {
    return std::make_unique<traffic::FlowGenerator>(p.gen);
  });
  traffic::FlowGenerator& gen = *gen_owner;
  tr.mark_setup_done();
  if (setup_only) return {};
  traffic::SteeringResult res;
  std::vector<Addr> chunk;
  chunk.reserve(p.chunk_lines + p.table_ways + 1);
  Cycles miss_walk_cycles = 0;
  std::uint64_t epoch_no = 0;
  double simulate_lines = 0.0;
  double refetched = 0.0;
  double budgeted = 0.0;

  const auto flush = [&] {
    if (chunk.empty()) return;
    steer_chunk_hist.add(chunk.size());
    simulate_lines += static_cast<double>(chunk.size());
    mem.work(tr.time(kSimulate, [&] { return hier.simulate({chunk.data(), chunk.size()}); }));
    chunk.clear();
  };

  int level = 0;
  Bundle* active_rules = &bundle;
  std::uint64_t service_tokens = 0;
  std::uint64_t pending_head = 0;
  std::uint64_t pending_tail = 0;
  std::size_t pending_count = 0;
  std::size_t epoch_peak_depth = 0;
  double miss_ewma = 0.0;
  std::uint64_t ewma_last_lookups = 0;
  std::uint64_t ewma_last_misses = 0;
  const traffic::FlowTableStats& ts = table.stats();

  const auto rule_walk = [&](Bundle& rules) {
    const Cycles mark = mem.cycles();
    const auto env = tr.time(kProbe, [&] { return rules->probe(miss_pattern); });
    require(!env.has_value(), "probe pattern matched a rule");
    const Cycles walk = mem.cycles() - mark;
    miss_walk_cycles += walk;
    miss_walk_hist.add(walk);
  };

  const auto post_pending = [&] {
    require(pending_count < p.res.queue_capacity, "pending ring overflow");
    const std::size_t slot = static_cast<std::size_t>(pending_tail % p.res.queue_capacity);
    pending_recvs[slot] = match::MatchRequest(match::RequestKind::kRecv, slot);
    match::MatchRequest* got = tr.time(kPostRecv, [&] {
      return pending->post_recv(
          match::Pattern::make(kPendingRank,
                               kPendingTagBase + static_cast<std::int32_t>(slot), 0),
          &pending_recvs[slot]);
    });
    require(got == nullptr, "the pending engine's UMQ must stay empty");
    ++pending_tail;
    ++pending_count;
    if (pending_count > epoch_peak_depth) epoch_peak_depth = pending_count;
  };

  const auto service_one = [&] {
    const std::size_t slot = static_cast<std::size_t>(pending_head % p.res.queue_capacity);
    pending_msgs[slot] = match::MatchRequest(match::RequestKind::kUnexpected, slot);
    match::MatchRequest* hit = tr.time(kIncoming, [&] {
      return pending->incoming(
          match::Envelope{kPendingTagBase + static_cast<std::int32_t>(slot),
                          kPendingRank, 0},
          &pending_msgs[slot]);
    });
    require(hit == &pending_recvs[slot], "pending service matched another receive");
    ++pending_head;
    --pending_count;
    ++res.serviced_walks;
    rule_walk(*active_rules);
  };

  const auto apply_level = [&](int lvl) {
    level = lvl;
    if (lvl > res.level_max) res.level_max = lvl;
    if (filter) filter->set_strict_margin(lvl >= 1 ? p.res.strict_margin : 0);
    active_rules = (lvl >= 2 && essential.engine != nullptr) ? &essential : &bundle;
    if (heater) {
      if (lvl >= 2 && rules_region_live) {
        tr.time(kHeaterRegister, [&] { heater->unregister_region(rules_region_handle); });
        rules_region_live = false;
      } else if (lvl < 2 && !rules_region_live) {
        rules_region_handle = tr.time(kHeaterRegister, [&] {
          return heater->register_region(bundle.arena->sim_base(),
                                         std::max<std::size_t>(bundle.arena->used(), 1));
        });
        rules_region_live = true;
      }
    }
  };

  for (std::uint64_t pkt = 0; pkt < p.packets; ++pkt) {
    if (pkt % p.epoch_packets == 0) {
      flush();
      ++epoch_no;
      if (p.compute_working_set_bytes > 0)
        tr.time(kPollute, [&] { hier.pollute(p.compute_working_set_bytes); });
      if (heater) {
        budgeted += budgeted_lines(*heater);
        const std::uint64_t fetched = tr.time(kHeaterRefresh, [&] { return heater->refresh(); });
        refetched += static_cast<double>(fetched);
        res.heated_lines_refreshed += fetched;
      }
      live_flows_metric.set(static_cast<double>(table.live_flows()));
      if (ladder) {
        const std::uint64_t lk = ts.lookups + ts.probe_lookups;
        const std::uint64_t dm = ts.misses + (ts.probe_lookups - ts.probe_hits);
        if (lk > ewma_last_lookups) {
          const double rate = static_cast<double>(dm - ewma_last_misses) /
                              static_cast<double>(lk - ewma_last_lookups);
          miss_ewma = 0.75 * miss_ewma + 0.25 * rate;
        }
        ewma_last_lookups = lk;
        ewma_last_misses = dm;
        resilience::HealthSignals sig;
        sig.queue_depth = epoch_peak_depth;
        sig.queue_high_watermark = p.res.queue_high;
        sig.miss_rate_ewma = miss_ewma;
        const int lvl = tr.time(kCheckOnce, [&] { return ladder->check_once(mem.cycles(), sig); });
        if (lvl != level) apply_level(lvl);
        queue_depth_metric.set(static_cast<double>(pending_count));
        epoch_peak_depth = pending_count;
      }
    }
    const std::uint64_t flow = tr.time(kGenNext, [&] { return gen.next(); });
    packets_metric.add(1);
    if (p.res.enabled) {
      service_tokens += p.res.service_numer;
      while (service_tokens >= p.res.service_denom && pending_count > 0) {
        service_tokens -= p.res.service_denom;
        service_one();
      }
      if (pending_count == 0 && service_tokens > p.res.service_denom)
        service_tokens = p.res.service_denom;
    }
    if (valve && tr.time(kValveUpdate, [&] { return valve->update(pending_count); })) {
      ++res.shed_backpressure;
      continue;
    }
    const bool standing = flow < p.gen.flows;
    if (p.res.enabled && level >= 3) {
      const bool hit = tr.time(kTableProbe, [&] { return table.probe(flow, &chunk); });
      if (standing) {
        ++res.hot_lookups;
        res.hot_hits += hit ? 1 : 0;
      }
    } else {
      const bool hit = tr.time(kSteer, [&] { return table.steer(flow, &chunk); });
      if (standing) {
        ++res.hot_lookups;
        res.hot_hits += hit ? 1 : 0;
      }
      if (!hit) {
        if (p.res.enabled)
          post_pending();
        else
          rule_walk(bundle);
      }
    }
    if (chunk.size() >= p.chunk_lines) flush();
  }
  while (pending_count > 0) service_one();
  flush();
  live_flows_metric.set(static_cast<double>(table.live_flows()));

  res.generated = gen.generated();
  res.lookups = ts.lookups + ts.probe_lookups;
  res.hits = ts.hits + ts.probe_hits;
  res.misses = ts.misses;
  res.shed_degraded = ts.probe_lookups - ts.probe_hits;
  res.shed = res.shed_backpressure + res.shed_degraded;
  res.admission_rejects = ts.admission_rejects;
  res.insertions = ts.insertions;
  res.evictions = ts.evictions;
  res.hit_ratio = res.lookups > 0 ? static_cast<double>(res.hits) /
                                        static_cast<double>(res.lookups)
                                  : 0.0;
  res.hot_hit_ratio = res.hot_lookups > 0 ? static_cast<double>(res.hot_hits) /
                                                static_cast<double>(res.hot_lookups)
                                          : 0.0;
  res.total_cycles = mem.cycles();
  res.ns_per_packet = p.arch.cycles_to_ns(res.total_cycles) /
                      std::max<double>(1.0, static_cast<double>(res.lookups));
  res.miss_walk_ns = ts.misses > 0 ? p.arch.cycles_to_ns(miss_walk_cycles) /
                                         static_cast<double>(ts.misses)
                                   : 0.0;
  const auto& hs = hier.stats();
  const auto [llc_hits, llc_misses] = llc_counts(hier);
  res.llc_hit_rate = hier.level(hier.level_count() - 1).stats().hit_rate();
  res.dram_per_packet = static_cast<double>(hs.dram_fetches) /
                        std::max<double>(1.0, static_cast<double>(res.lookups));
  res.epochs = epoch_no;
  res.live_flows = table.live_flows();
  if (valve) res.peak_queue_depth = valve->stats().peak_depth;
  if (ladder) {
    const resilience::DegradationStats ds = ladder->stats();
    res.level_final = ds.level;
    res.escalations = ds.escalations;
    res.recoveries = ds.recoveries;
  }
  if (p.res.enabled) {
    obs::MetricsRegistry::global().counter("traffic.shed").add(res.shed);
    obs::MetricsRegistry::global()
        .counter("traffic.admission_rejects")
        .add(res.admission_rejects);
  }
  table.set_admission(nullptr);

  const auto inspected_of = [](const Bundle& b) {
    return b.engine ? static_cast<double>(b->prq().stats().entries_inspected +
                                          b->umq().stats().entries_inspected)
                    : 0.0;
  };
  const double lines = static_cast<double>(hs.lines_touched);
  counts = {{"sim_accesses", lines},
            {"match_sim_accesses", lines - simulate_lines},
            {"simulate_lines", simulate_lines},
            {"llc_hits", static_cast<double>(llc_hits)},
            {"llc_misses", static_cast<double>(llc_misses)},
            {"lines_refetched", refetched},
            {"lines_budgeted", budgeted},
            {"entries_inspected",
             inspected_of(bundle) + inspected_of(essential) + inspected_of(pending)},
            {"steer_lookups", static_cast<double>(ts.lookups + ts.probe_lookups)},
            {"steer_hits", static_cast<double>(ts.hits + ts.probe_hits)},
            {"generated", static_cast<double>(res.generated)},
            {"shed", static_cast<double>(res.shed)},
            {"admission_rejects", static_cast<double>(res.admission_rejects)}};
  return fields_of(res);
}

Fields redrive_call(const Call& call, Tracer& tracer, Fields& counts, bool setup_only) {
  return tracer.time(kRoot, [&] {
    switch (call.kind) {
      case CallKind::kAppModel: return redrive_app(call.app, tracer, counts, setup_only);
      case CallKind::kMtDecomp: return redrive_mt(call.mt, tracer, counts, setup_only);
      case CallKind::kSteering:
        return redrive_steering(call.steer, tracer, counts, setup_only);
    }
    return Fields{};
  });
}

}  // namespace

Fields redrive(const Call& call, Tracer& tracer, Fields& counts) {
  return redrive_call(call, tracer, counts, /*setup_only=*/false);
}

double time_setup(const Call& call) {
  Tracer tracer;
  Fields counts;
  redrive_call(call, tracer, counts, /*setup_only=*/true);
  return static_cast<double>(tracer.setup_ticks()) / ticks_per_ns() * 1e-9;
}

}  // namespace perfbench
