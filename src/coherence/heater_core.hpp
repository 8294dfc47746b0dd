// semperm/coherence/heater_core.hpp
//
// ExecHeater: the execution-driven counterpart of cachesim::SimHeater.
// Where SimHeater computes refresh/saturation/synchronisation analytically,
// ExecHeater *runs* the heater: a dedicated simulated core in a
// CoherentHierarchy re-reads the registered regions, racing the
// application core for LLC capacity. Every term the analytic model
// approximates is measured here:
//
//  * Refresh — heater_touch_line() streams registered lines into the LLC;
//    cold lines genuinely pay DRAM latency.
//  * Saturation — the pass runs under a cycle budget (the refresh window,
//    or one heating period when racing pollution); coverage() is the
//    measured fraction of the budgeted bytes the pass reached.
//  * Synchronisation — the registry is real memory: a lock line plus one
//    line per slot. The heater writes the lock and walks the slots each
//    pass; mutation_cost() performs the application-side writes, so the
//    lock-line M-state ping-pong between the two cores is charged by the
//    MESI model itself rather than by the lock_transfer constant.
//
// The registry lives at a reserved simulated address far above any
// workload region (kRegistryBase).
#pragma once

#include <cstdint>

#include "cachesim/heater.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "common/types.hpp"

namespace semperm::coherence {

class ExecHeater {
 public:
  /// Registry lock/slot lines live at this line index (2^40 lines = 2^46
  /// bytes: far above any simulated workload address).
  static constexpr Addr kRegistryBase = Addr{1} << 40;

  /// `heater_core` runs the heating passes; `app_core` is charged the
  /// registry mutations. The SimHeaterConfig capacity/period/window knobs
  /// keep their meaning; touch_cycles_per_line is ignored (measured).
  ExecHeater(CoherentHierarchy& hier, unsigned heater_core, unsigned app_core,
             cachesim::SimHeaterConfig config = {});

  std::size_t register_region(Addr addr, std::size_t bytes);
  void unregister_region(std::size_t handle);

  /// One heating pass, executed on the heater core under the cycle budget.
  /// Returns lines that had gone cold (fetched from DRAM).
  std::uint64_t refresh();

  /// Measured coverage of the most recent pass (1.0 before any pass).
  double coverage() const { return coverage_; }

  /// Application-side registry mutation, performed as real coherent writes
  /// (lock line + slot line) on the app core plus the registry walk.
  Cycles mutation_cost();

  std::size_t live_regions() const { return registry_.live; }
  std::size_t registered_bytes() const { return registry_.registered_bytes; }
  std::size_t slot_count() const { return registry_.regions.size(); }
  std::size_t capacity_bytes() const { return capacity_; }
  std::uint64_t total_refreshed_lines() const { return refreshed_lines_; }
  /// Cycles the heater core spent in the most recent pass.
  Cycles last_pass_cycles() const { return last_pass_cycles_; }

 private:
  Addr lock_line() const { return kRegistryBase; }
  Addr slot_line(std::size_t slot) const {
    return kRegistryBase + 1 + static_cast<Addr>(slot);
  }
  Cycles budget_cycles() const;

  CoherentHierarchy* hier_;
  unsigned heater_core_;
  unsigned app_core_;
  cachesim::SimHeaterConfig config_;
  std::size_t capacity_;
  cachesim::HeaterRegistry registry_;
  std::uint64_t refreshed_lines_ = 0;
  double coverage_ = 1.0;
  Cycles last_pass_cycles_ = 0;
};

}  // namespace semperm::coherence
