#include "workloads.hpp"

#include "apps/apps.hpp"
#include "match/factory.hpp"

namespace perfbench {

using namespace semperm;

namespace {

/// Seed salt of a variant; 0 leaves the committed default seeds alone.
std::uint64_t salt(std::uint64_t variant) {
  return variant * 0x9e3779b97f4a7c15ULL;
}

// Sizes: one to two and a half seconds of host time per fixed input on a
// 4-vCPU Xeon, so a 30 s run measures a dozen or more repetitions.
constexpr std::size_t kAmgPhases = 8;
constexpr std::size_t kMinifePhases = 5;
constexpr std::size_t kFdsPhases = 4;
constexpr std::uint64_t kSteerPackets = 100'000;

std::vector<Call> app_model_calls(std::uint64_t v) {
  const auto lla2 = match::QueueConfig::from_label("lla-2");
  std::vector<Call> calls;
  auto add = [&](std::string name, workloads::AppModelParams p) {
    p.seed ^= salt(v);
    calls.push_back(Call{std::move(name), CallKind::kAppModel, p, {}, {}});
  };
  auto amg = apps::amg_params(1024);
  amg.phases = kAmgPhases;
  add("amg1024.baseline", amg);
  amg.queue = lla2;
  add("amg1024.lla2", amg);
  auto minife = apps::minife_params(1024);
  minife.phases = kMinifePhases;
  add("minife1024.baseline", minife);
  minife.queue = lla2;
  add("minife1024.lla2", minife);
  auto fds = apps::fds_params(1024, apps::FdsSystem::kBroadwell);
  fds.phases = kFdsPhases;
  fds.heater = workloads::HeaterMode::kPooled;
  add("fds1024.pooled", fds);
  return calls;
}

std::vector<Call> mt_decomp_calls(std::uint64_t v) {
  std::vector<Call> calls;
  for (motifs::MtDecompParams p : motifs::table1_rows()) {
    // 1x1x256 27-point alone costs ~3 s per trial; the other 27-point
    // rows keep the coherence-dominated regime at a steadier rep count.
    if (p.stencil == motifs::Stencil::k27pt && p.grid.nz == 256) continue;
    p.trials = 1;
    p.seed ^= salt(v);
    p.model_coherence = true;
    calls.push_back(Call{motifs::stencil_name(p.stencil) + "." + p.grid.to_string(),
                         CallKind::kMtDecomp, {}, p, {}});
  }
  return calls;
}

std::vector<Call> steering_calls(std::uint64_t v) {
  std::vector<Call> calls;
  traffic::SteeringParams base;
  base.arch = cachesim::sandy_bridge();
  base.gen.zipf_s = 1.05;
  base.gen.seed = traffic::kTrafficDefaultSeed ^ salt(v);
  base.packets = kSteerPackets;
  base.heater_on = true;

  traffic::SteeringParams fits = base;
  fits.gen.flows = std::uint64_t{1} << 20;  // 8 MiB table in a 20 MiB LLC
  calls.push_back(Call{"flows_2p20", CallKind::kSteering, {}, {}, fits});

  traffic::SteeringParams spills = base;
  spills.gen.flows = 10'000'000;  // 128 MiB table: the crossover
  calls.push_back(Call{"flows_1e7", CallKind::kSteering, {}, {}, spills});

  // The overload campaign's flash crowd at 10x offered load (smoke-size
  // table, so displacement is constant and admission decides residency).
  traffic::SteeringParams flash = base;
  flash.gen.flows = std::uint64_t{1} << 20;
  flash.table_slots = 4096;
  flash.gen.pattern = traffic::TemporalPattern::kFlashCrowd;
  flash.gen.crowd.burst_start = kSteerPackets / 4;
  flash.gen.crowd.burst_len = kSteerPackets / 2;
  flash.gen.crowd.crowd_flows = std::uint64_t{1} << 18;
  flash.gen.crowd.fraction = 0.85;
  flash.res.enabled = true;
  flash.res.admission_on = true;
  flash.res.service_numer = 1;
  flash.res.service_denom = 10;
  calls.push_back(Call{"flash_10x", CallKind::kSteering, {}, {}, flash});
  return calls;
}

}  // namespace

std::vector<Call> workload_calls(const std::string& workload,
                                 std::uint64_t variant) {
  if (workload == "app_model") return app_model_calls(variant);
  if (workload == "mt_decomp") return mt_decomp_calls(variant);
  if (workload == "steering") return steering_calls(variant);
  return {};
}

Fields fields_of(const workloads::AppModelResult& r) {
  return {{"runtime_s", r.runtime_s},
          {"compute_s", r.compute_s},
          {"comm_s", r.comm_s},
          {"match_s", r.match_s},
          {"mean_search_depth", r.mean_search_depth}};
}

Fields fields_of(const motifs::MtDecompResult& r) {
  const coherence::CoherenceStats& c = r.coherence;
  return {{"tr", r.tr},
          {"ts", r.ts},
          {"length", r.length},
          {"mean_search_depth", r.mean_search_depth},
          {"stddev_search_depth", r.stddev_search_depth},
          {"mean_cycles_per_op", r.mean_cycles_per_op},
          {"lock_transfers_per_op", r.lock_transfers_per_op},
          {"snoops", static_cast<double>(c.snoops)},
          {"invalidations", static_cast<double>(c.invalidations)},
          {"interventions", static_cast<double>(c.interventions)},
          {"clean_downgrades", static_cast<double>(c.clean_downgrades)},
          {"upgrades", static_cast<double>(c.upgrades)},
          {"dirty_writebacks", static_cast<double>(c.dirty_writebacks)},
          {"back_invalidations", static_cast<double>(c.back_invalidations)},
          {"lock_transfers", static_cast<double>(c.lock_transfers)}};
}

Fields fields_of(const traffic::SteeringResult& r) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  return {{"generated", d(r.generated)},
          {"dropped", d(r.dropped)},
          {"lookups", d(r.lookups)},
          {"hits", d(r.hits)},
          {"misses", d(r.misses)},
          {"shed", d(r.shed)},
          {"insertions", d(r.insertions)},
          {"evictions", d(r.evictions)},
          {"hit_ratio", r.hit_ratio},
          {"shed_backpressure", d(r.shed_backpressure)},
          {"shed_degraded", d(r.shed_degraded)},
          {"admission_rejects", d(r.admission_rejects)},
          {"serviced_walks", d(r.serviced_walks)},
          {"peak_queue_depth", d(r.peak_queue_depth)},
          {"level_final", r.level_final},
          {"level_max", r.level_max},
          {"escalations", d(r.escalations)},
          {"recoveries", d(r.recoveries)},
          {"hot_lookups", d(r.hot_lookups)},
          {"hot_hits", d(r.hot_hits)},
          {"hot_hit_ratio", r.hot_hit_ratio},
          {"ns_per_packet", r.ns_per_packet},
          {"miss_walk_ns", r.miss_walk_ns},
          {"total_cycles", d(r.total_cycles)},
          {"llc_hit_rate", r.llc_hit_rate},
          {"dram_per_packet", r.dram_per_packet},
          {"epochs", d(r.epochs)},
          {"heated_lines_refreshed", d(r.heated_lines_refreshed)},
          {"live_flows", d(r.live_flows)}};
}

Fields run_entry(const Call& call) {
  switch (call.kind) {
    case CallKind::kAppModel: return fields_of(workloads::run_app_model(call.app));
    case CallKind::kMtDecomp: return fields_of(motifs::run_mt_decomp(call.mt));
    case CallKind::kSteering: return fields_of(traffic::run_steering(call.steer));
  }
  return {};
}

}  // namespace perfbench
