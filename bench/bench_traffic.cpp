// Internet-scale traffic panels (DESIGN.md §13, EXPERIMENTS.md): flow-cache
// hit ratio and match latency vs. flow count × Zipf skew × LLC size ×
// heater on/off, over the src/traffic/ steering simulation.
//
// Panels:
//   traffic steering — <arch>   one row per (flows, skew, heater) point:
//                               hit ratio, ns/packet, miss-walk cost, LLC
//                               behaviour, and the raw conservation counts
//                               (generated == hits + misses + dropped)
//                               that tools/check_traffic_report.py audits.
//   traffic crossover           heater-on vs heater-off ns/packet at the
//                               peak skew: speedup > 1 while the flow table
//                               fits the LLC, collapsing once the working
//                               set exceeds it (the paper's thesis at
//                               "millions of users" scale).
//   traffic overload campaign   chaos × overload matrix (DESIGN.md §17.4):
//                               steady vs flash-crowd at 1×/3×/10× offered
//                               load × fault plans × admission on/off over
//                               the full resilience layer — shed counts,
//                               degradation-ladder excursions, hot-flow
//                               hit-ratio ablation, and a served-work
//                               floor that must degrade gracefully.
//
// Everything downstream of --seed is simulated and deterministic — two
// runs with the same seed (and the same --fault plan) write identical
// reports; CI asserts exactly that. The native hot paths' throughput is
// bench_selfperf's traffic_* rows.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cachesim/arch.hpp"
#include "fault/fault.hpp"
#include "traffic/flow_gen.hpp"
#include "traffic/flow_table.hpp"
#include "traffic/steering.hpp"

namespace semperm::bench {
namespace {

std::vector<std::uint64_t> parse_u64_list(const std::string& s) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    const std::string item = s.substr(pos, next - pos);
    if (!item.empty()) out.push_back(std::stoull(item));
    pos = next + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty list: " + s);
  return out;
}

std::vector<double> parse_double_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    const std::string item = s.substr(pos, next - pos);
    if (!item.empty()) out.push_back(std::stod(item));
    pos = next + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty list: " + s);
  return out;
}

std::string steering_title(const cachesim::ArchProfile& arch) {
  return "traffic steering — " + arch.name;
}

constexpr const char* kCrossoverTitle =
    "traffic crossover (heater speedup at peak skew)";
constexpr const char* kCampaignTitle = "traffic overload campaign";

}  // namespace
}  // namespace semperm::bench

int main(int argc, char** argv) {
  using namespace semperm;
  Cli cli("bench_traffic",
          "Flow-cache steering: hit ratio & match latency vs flows x skew x "
          "LLC x heater");
  bench::add_standard_flags(cli);
  cli.add_string("flows", "",
                 "Comma-separated flow-population sizes (default "
                 "100000,1000000,10000000; quick 65536,1048576)");
  cli.add_string("skews", "",
                 "Comma-separated Zipf skews (default 0,0.6,0.8,1.0,1.2; "
                 "quick 0,1.05)");
  cli.add_int("packets", 0,
              "Packets per configuration (0 = 300000, quick 60000)");
  cli.add_int("rules", 64, "Steering rules the miss path walks");
  cli.add_string("pattern", "steady",
                 "Temporal pattern: steady|diurnal|flash");
  cli.add_int("crowd-flows", 4096, "Flash crowd: distinct new flows");
  cli.add_double("crowd-fraction", 0.5,
                 "Flash crowd: share of in-window arrivals");
  cli.add_int("epoch-packets", 8192,
              "Packets per compute/heater epoch");
  if (!cli.parse(argc, argv)) return 0;
  bench::configure_report(cli);

  const bool quick = cli.flag("quick");
  const bool csv = cli.flag("csv");
  const std::uint64_t seed = bench::bench_seed(traffic::kTrafficDefaultSeed);

  std::vector<std::uint64_t> flows_list;
  std::vector<double> skews;
  traffic::TemporalPattern pattern;
  try {
    const std::string flows_flag = cli.get_string("flows");
    flows_list =
        !flows_flag.empty()
            ? bench::parse_u64_list(flows_flag)
            : (quick ? std::vector<std::uint64_t>{65536, 1048576}
                     : std::vector<std::uint64_t>{100000, 1000000, 10000000});
    const std::string skews_flag = cli.get_string("skews");
    skews = !skews_flag.empty()
                ? bench::parse_double_list(skews_flag)
                : (quick ? std::vector<double>{0.0, 1.05}
                         : std::vector<double>{0.0, 0.6, 0.8, 1.0, 1.2});
    pattern = traffic::temporal_pattern_from_name(cli.get_string("pattern"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::uint64_t packets =
      cli.get_int("packets") > 0
          ? static_cast<std::uint64_t>(cli.get_int("packets"))
          : (quick ? 60'000 : 300'000);

  const std::vector<cachesim::ArchProfile> arches = {cachesim::sandy_bridge(),
                                                     cachesim::broadwell()};

  // One steering run per (arch, flows, skew, heater) point; the crossover
  // panel reuses the sweep's results, so a point is computed when either
  // panel wants it.
  const bool want_crossover = bench::panel_enabled(bench::kCrossoverTitle);
  struct Key {
    std::string arch;
    std::uint64_t flows;
    double skew;
    bool heater;
    bool operator<(const Key& o) const {
      if (arch != o.arch) return arch < o.arch;
      if (flows != o.flows) return flows < o.flows;
      if (skew != o.skew) return skew < o.skew;
      return heater < o.heater;
    }
  };
  std::map<Key, traffic::SteeringResult> results;

  for (const auto& arch : arches) {
    const std::string title = bench::steering_title(arch);
    if (!bench::panel_enabled(title) && !want_crossover) continue;
    Table table({"flows", "skew", "pattern", "heater", "table MiB", "hit %",
                 "ns/pkt", "miss ns", "LLC hit %", "DRAM/pkt", "generated",
                 "hits", "misses", "shed", "dropped", "evictions"});
    for (const std::uint64_t flows : flows_list) {
      const double table_mib =
          static_cast<double>(
              traffic::auto_geometry(flows).slots * kCacheLine) /
          (1024.0 * 1024.0);
      for (const double skew : skews) {
        for (const bool heater : {false, true}) {
          traffic::SteeringParams p;
          p.arch = arch;
          p.gen.flows = flows;
          p.gen.zipf_s = skew;
          p.gen.seed = seed;
          p.gen.pattern = pattern;
          if (pattern == traffic::TemporalPattern::kFlashCrowd) {
            p.gen.crowd.burst_start = packets / 2;
            p.gen.crowd.burst_len = packets / 8;
            p.gen.crowd.crowd_flows =
                static_cast<std::uint64_t>(cli.get_int("crowd-flows"));
            p.gen.crowd.fraction = cli.get_double("crowd-fraction");
          }
          p.packets = packets;
          p.rules = static_cast<std::size_t>(cli.get_int("rules"));
          p.epoch_packets =
              static_cast<std::uint64_t>(cli.get_int("epoch-packets"));
          p.heater_on = heater;
          p.fault = bench::fault_plan();
          const traffic::SteeringResult r = traffic::run_steering(p);
          results.emplace(
              Key{arch.name, flows, skew, heater}, r);
          table.add_row({Table::num(std::uint64_t{flows}),
                         Table::num(skew, 2),
                         traffic::temporal_pattern_name(pattern),
                         heater ? "on" : "off", Table::num(table_mib, 1),
                         Table::num(100.0 * r.hit_ratio, 2),
                         Table::num(r.ns_per_packet, 1),
                         Table::num(r.miss_walk_ns, 1),
                         Table::num(100.0 * r.llc_hit_rate, 2),
                         Table::num(r.dram_per_packet, 3),
                         Table::num(r.generated), Table::num(r.hits),
                         Table::num(r.misses), Table::num(r.shed),
                         Table::num(r.dropped), Table::num(r.evictions)});
        }
      }
    }
    bench::emit(title, table, csv);
  }

  if (want_crossover && !results.empty()) {
    // The locality thesis in one table: heater speedup at the peak skew,
    // per flow count — speedup while the table fits the LLC, collapse
    // once the working set exceeds it.
    double peak_skew = skews.front();
    for (const double s : skews) peak_skew = std::max(peak_skew, s);
    Table cross({"arch", "flows", "skew", "table MiB", "LLC MiB", "off ns/pkt",
                 "on ns/pkt", "speedup"});
    for (const auto& arch : arches) {
      const double llc_mib =
          static_cast<double>(arch.l3.size_bytes) / (1024.0 * 1024.0);
      for (const std::uint64_t flows : flows_list) {
        const auto off = results.find(Key{arch.name, flows, peak_skew, false});
        const auto on = results.find(Key{arch.name, flows, peak_skew, true});
        if (off == results.end() || on == results.end()) continue;
        const double speedup = on->second.ns_per_packet > 0
                                   ? off->second.ns_per_packet /
                                         on->second.ns_per_packet
                                   : 0.0;
        const double table_mib =
            static_cast<double>(
                traffic::auto_geometry(flows).slots * kCacheLine) /
            (1024.0 * 1024.0);
        cross.add_row({arch.name, Table::num(std::uint64_t{flows}),
                       Table::num(peak_skew, 2), Table::num(table_mib, 1),
                       Table::num(llc_mib, 1),
                       Table::num(off->second.ns_per_packet, 1),
                       Table::num(on->second.ns_per_packet, 1),
                       Table::num(speedup, 3)});
        bench::report_metric("traffic_crossover_speedup_" + arch.name + "_" +
                                 std::to_string(flows),
                             speedup);
      }
    }
    bench::emit(bench::kCrossoverTitle, cross, csv);
  }

  if (bench::panel_enabled(bench::kCampaignTitle)) {
    // Chaos x overload campaign (DESIGN.md §17.4, EXPERIMENTS.md): the
    // full resilience layer (admission on/off is the ablation axis) under
    // steady vs flash-crowd traffic at 1x/3x/10x offered load, clean and
    // with 1% fault drops. tools/check_traffic_report.py validates the
    // shed-conservation identity per row, monotone shed in intensity, a
    // non-collapsing served-work floor, and the admission filter's
    // hot-flow protection under the flash crowd.
    const std::uint64_t campaign_flows = quick ? (std::uint64_t{1} << 20)
                                               : 10'000'000;
    const std::vector<std::uint64_t> intensities =
        quick ? std::vector<std::uint64_t>{1, 10}
              : std::vector<std::uint64_t>{1, 3, 10};
    const fault::FaultPlan drop_plan = fault::FaultPlan::parse("drop=0.01");
    Table campaign({"pattern", "intensity", "fault", "admission", "generated",
                    "hits", "misses", "shed", "dropped", "rejects", "hit %",
                    "hot hit %", "peak depth", "walks", "L max", "L final",
                    "served/kcycle"});
    for (const char* pat : {"steady", "flash"}) {
      for (const std::uint64_t intensity : intensities) {
        for (const bool faulty : {false, true}) {
          for (const bool admission : {false, true}) {
            traffic::SteeringParams p;
            p.arch = cachesim::sandy_bridge();
            p.gen.flows = campaign_flows;
            p.gen.zipf_s = 1.1;
            p.gen.seed = seed;
            p.packets = packets;
            // Overcommit the table (~250x standing flows per slot is the
            // paper's 10^7-flow regime): displacement is constant, so the
            // doorkeeper's keep-the-hot-tail policy actually decides who
            // stays resident. Auto geometry would leave it half empty at
            // smoke-run packet counts.
            p.table_slots = quick ? 4096 : 65536;
            p.rules = static_cast<std::size_t>(cli.get_int("rules"));
            p.epoch_packets =
                static_cast<std::uint64_t>(cli.get_int("epoch-packets"));
            p.heater_on = true;
            if (std::string(pat) == "flash") {
              p.gen.pattern = traffic::TemporalPattern::kFlashCrowd;
              p.gen.crowd.burst_start = packets / 4;
              p.gen.crowd.burst_len = packets / 2;
              p.gen.crowd.crowd_flows = quick ? (std::uint64_t{1} << 18)
                                              : (std::uint64_t{1} << 21);
              p.gen.crowd.fraction = 0.85;
            }
            p.fault = faulty ? &drop_plan : nullptr;
            p.res.enabled = true;
            p.res.admission_on = admission;
            p.res.service_numer = 1;
            p.res.service_denom = intensity;
            const traffic::SteeringResult r = traffic::run_steering(p);
            const double served_per_kcycle =
                r.total_cycles > 0
                    ? 1000.0 * static_cast<double>(r.hits + r.misses) /
                          static_cast<double>(r.total_cycles)
                    : 0.0;
            campaign.add_row(
                {pat, Table::num(intensity), faulty ? "drop=0.01" : "none",
                 admission ? "on" : "off", Table::num(r.generated),
                 Table::num(r.hits), Table::num(r.misses), Table::num(r.shed),
                 Table::num(r.dropped), Table::num(r.admission_rejects),
                 Table::num(100.0 * r.hit_ratio, 2),
                 Table::num(100.0 * r.hot_hit_ratio, 2),
                 Table::num(r.peak_queue_depth), Table::num(r.serviced_walks),
                 Table::num(std::uint64_t(r.level_max)),
                 Table::num(std::uint64_t(r.level_final)),
                 Table::num(served_per_kcycle, 4)});
          }
        }
      }
    }
    bench::emit(bench::kCampaignTitle, campaign, csv);
  }

  return bench::finish_report();
}
