#include "obs/profiler.hpp"

#include <algorithm>
#include <array>
#include <iomanip>
#include <sstream>

namespace semperm::obs {

namespace {

// Parallel to ProfSite. The collapsed-stack paths group the sites the
// way the item-4 analysis slices them: probe arithmetic
// (access_line;*_probe) vs. directory/MESI bookkeeping
// (access_line;directory;* and access_line;mesi;*).
struct SiteNames {
  const char* label;
  const char* stack;
};
constexpr std::array<SiteNames, kProfSiteCount> kSiteNames = {{
    {"l1_probe", "access_line;l1_probe"},
    {"l2_probe", "access_line;l2_probe"},
    {"llc_probe", "access_line;llc_probe"},
    {"dir_lookup", "access_line;directory;lookup"},
    {"upgrade_snoop", "access_line;directory;upgrade_snoop"},
    {"write_invalidate", "access_line;directory;write_invalidate"},
    {"clean_downgrade", "access_line;directory;clean_downgrade"},
    {"intervention", "access_line;mesi;intervention"},
    {"remote_forward", "access_line;mesi;remote_forward"},
    {"dram_fill", "access_line;dram_fill"},
    {"back_invalidate", "access_line;directory;back_invalidate"},
    {"writeback", "access_line;mesi;writeback"},
    {"mesi_transition", "access_line;mesi;transition"},
    {"heater_touch", "heater_touch;llc"},
}};

}  // namespace

const char* prof_site_label(ProfSite site) {
  return kSiteNames[static_cast<std::size_t>(site)].label;
}

const char* prof_site_stack(ProfSite site) {
  return kSiteNames[static_cast<std::size_t>(site)].stack;
}

std::string prof_table(const ProfSnapshot& snap) {
  const std::uint64_t total = snap.total_cycles();
  std::array<std::size_t, kProfSiteCount> order;
  for (std::size_t i = 0; i < kProfSiteCount; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (snap.cycles[a] != snap.cycles[b]) return snap.cycles[a] > snap.cycles[b];
    if (snap.ops[a] != snap.ops[b]) return snap.ops[a] > snap.ops[b];
    return a < b;
  });
  std::ostringstream os;
  os << "simulated-cycle profile (" << total << " cycles attributed)\n";
  os << "  site               cycles      share         ops  cycles/op\n";
  for (const std::size_t s : order) {
    if (snap.cycles[s] == 0 && snap.ops[s] == 0) continue;
    const double share =
        total ? 100.0 * static_cast<double>(snap.cycles[s]) /
                    static_cast<double>(total)
              : 0.0;
    const double per_op =
        snap.ops[s] ? static_cast<double>(snap.cycles[s]) /
                          static_cast<double>(snap.ops[s])
                    : 0.0;
    os << "  " << std::left << std::setw(17)
       << prof_site_label(static_cast<ProfSite>(s)) << std::right
       << std::setw(11) << snap.cycles[s] << std::setw(10) << std::fixed
       << std::setprecision(1) << share << '%' << std::setw(12) << snap.ops[s]
       << std::setw(11) << std::setprecision(1) << per_op << '\n';
  }
  return os.str();
}

std::string prof_collapsed(const ProfSnapshot& snap) {
  std::ostringstream os;
  for (std::size_t s = 0; s < kProfSiteCount; ++s) {
    if (snap.cycles[s] == 0 && snap.ops[s] == 0) continue;
    // Zero-cost sites still appear (weight = op count) so protocol
    // traffic is visible in the flame graph, just not cycle-weighted.
    const std::uint64_t weight = snap.cycles[s] ? snap.cycles[s] : snap.ops[s];
    os << prof_site_stack(static_cast<ProfSite>(s)) << ' ' << weight << '\n';
  }
  return os.str();
}

}  // namespace semperm::obs
