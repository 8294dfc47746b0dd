#include "coherence/heater_core.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace semperm::coherence {

ExecHeater::ExecHeater(CoherentHierarchy& hier, unsigned heater_core,
                       unsigned app_core, cachesim::SimHeaterConfig config)
    : hier_(&hier),
      heater_core_(heater_core),
      app_core_(app_core),
      config_(config) {
  SEMPERM_ASSERT(heater_core_ < hier_->cores());
  SEMPERM_ASSERT(app_core_ < hier_->cores());
  SEMPERM_ASSERT_MSG(heater_core_ != app_core_,
                     "the heater needs its own core");
  SEMPERM_ASSERT_MSG(hier_->llc() != nullptr,
                     "execution-driven heating needs a shared LLC");
  capacity_ = config_.capacity_bytes != 0 ? config_.capacity_bytes
                                          : hier_->llc()->size_bytes() / 2;
}

std::size_t ExecHeater::register_region(Addr addr, std::size_t bytes) {
  return registry_.register_region(addr, bytes);
}

void ExecHeater::unregister_region(std::size_t handle) {
  registry_.unregister_region(handle);
}

Cycles ExecHeater::budget_cycles() const {
  // Racing continuous pollution the heater has exactly one period per
  // pass; at a bulk-synchronous phase boundary it has the refresh window.
  const double ns = config_.race_with_pollution ? config_.period_ns
                                                : config_.refresh_window_ns;
  return hier_->arch().ns_to_cycles(ns);
}

std::uint64_t ExecHeater::refresh() {
  const Cycles budget = budget_cycles();
  Cycles spent = 0;

  // Acquire the registry lock (a real coherent write: if the application
  // mutated the registry since the last pass, this is an intervention).
  spent += hier_->access_line(heater_core_, lock_line(), /*write=*/true);

  // Walk every slot, live or tombstoned — the heater cannot skip what it
  // has not read.
  const auto& regions = registry_.regions;
  for (std::size_t s = 0; s < regions.size(); ++s) {
    spent += hier_->access_line(heater_core_, slot_line(s));
    spent += config_.scan_cost_per_region;
  }

  // Heat regions oldest-first until the capacity budget or the cycle
  // budget runs out — whichever the race decides.
  std::uint64_t cold = 0;
  std::size_t heated_bytes = 0;
  for (const cachesim::HeaterRegistry::Region& r : regions) {
    if (!r.live) continue;
    if (spent >= budget || heated_bytes >= capacity_) break;
    const Addr first = line_of(r.addr);
    const Addr last = line_of(r.addr + r.bytes - 1);
    for (Addr line = first; line <= last; ++line) {
      if (spent >= budget || heated_bytes >= capacity_) break;
      const auto t = hier_->heater_touch_line(heater_core_, line);
      spent += t.cycles;
      heated_bytes += kCacheLine;
      if (t.cold) ++cold;
    }
  }

  const std::size_t goal = std::min(registry_.registered_bytes, capacity_);
  coverage_ = goal > 0 ? std::min(1.0, static_cast<double>(heated_bytes) /
                                           static_cast<double>(goal))
                       : 1.0;
  last_pass_cycles_ = spent;
  refreshed_lines_ += cold;
  return cold;
}

Cycles ExecHeater::mutation_cost() {
  // The mutation takes the registry lock and writes one slot from the
  // application core. Because the heater wrote both lines during its last
  // pass, each write is a real M→I intervention + invalidation — the
  // measured equivalent of the analytic lock_transfer charge.
  Cycles cost = hier_->access_line(app_core_, lock_line(), /*write=*/true);
  const auto& regions = registry_.regions;
  const auto& free_slots = registry_.free_slots;
  const std::size_t slot =
      free_slots.empty() ? (regions.empty() ? 0 : regions.size() - 1)
                         : free_slots.back();
  cost += hier_->access_line(app_core_, slot_line(slot), /*write=*/true);
  // Registry walk under the lock (pointer chase over the slot array).
  cost += config_.scan_cost_per_region * static_cast<Cycles>(regions.size());
  return cost;
}

}  // namespace semperm::coherence
