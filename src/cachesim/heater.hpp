// semperm/cachesim/heater.hpp
//
// SimHeater: the simulated counterpart of the hot-caching heater thread
// (paper §3.2, Fig. 3). A real heater runs on a second core sharing the
// LLC and periodically re-reads registered regions so the eviction policy
// keeps them resident ("semi-permanent cache occupancy"). The simulation
// captures the three effects the paper measures:
//
//  1. Refresh — `refresh()` (called at phase boundaries, after the emulated
//     compute phase cleared the cache) touches registered regions into the
//     LLC for free up to a capacity budget.
//
//  2. Saturation — a heating pass takes time: every registered line is an
//     LLC-speed read and every registry slot a list-walk step. When the
//     pass takes longer than the heating period the heater cannot keep
//     everything warm; `coverage()` shrinks and refresh() heats only that
//     fraction. This produces the paper's convergence of HC with the
//     baseline at long list lengths and its collapse at FDS scale.
//
//  3. Synchronisation overhead — registry mutations (per-element
//     registration with the original matching structures) charge the
//     application a contended lock transfer plus the expected wait for a
//     heater pass in progress (duty-cycle x half a pass). With the LLA +
//     dedicated element pool the pool is registered once, so this term
//     vanishes — the paper's HC-vs-HC+LLA asymmetry, and the mechanism
//     behind the Broadwell and at-scale HC slowdowns.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "common/types.hpp"

namespace semperm::cachesim {

struct SimHeaterConfig {
  /// Max bytes the heater keeps hot per refresh. 0 = half the LLC.
  std::size_t capacity_bytes = 0;
  /// Heating period (the paper's periodicity knob), nanoseconds.
  double period_ns = 50'000.0;
  /// Cycles per line the heater spends re-reading a registered line.
  /// 0 = the architecture's LLC hit latency.
  Cycles touch_cycles_per_line = 0;
  /// Registry-walk cost per slot (live or tombstoned) under the lock.
  Cycles scan_cost_per_region = 1;
  /// Time available to re-heat at a bulk-synchronous phase boundary (the
  /// tail of the compute phase), nanoseconds. Bounds coverage() when the
  /// heater is NOT racing pollution.
  double refresh_window_ns = 100'000.0;
  /// True when the application pollutes the cache *continuously* while
  /// messages arrive (unsynchronised traffic): the heater races the
  /// pollution and loses once a pass no longer fits its period.
  bool race_with_pollution = false;
};

/// The region registry both heaters walk (SimHeater and
/// coherence::ExecHeater): one slot per registration. Unregistering
/// tombstones the slot, and the next registration reuses the slot freed
/// last; passes walk the slots in index order.
struct HeaterRegistry {
  struct Region {
    Addr addr = 0;
    std::size_t bytes = 0;
    bool live = false;
  };

  std::size_t register_region(Addr addr, std::size_t bytes);
  void unregister_region(std::size_t handle);

  std::vector<Region> regions;
  std::vector<std::size_t> free_slots;
  std::size_t live = 0;
  std::size_t registered_bytes = 0;
};

class SimHeater {
 public:
  explicit SimHeater(Hierarchy& hierarchy, SimHeaterConfig config = {});

  /// Register a region (simulated address space). Returns a handle.
  /// Charges nothing; callers charge `mutation_cost()` to the application
  /// thread when registration happens on the hot path.
  std::size_t register_region(Addr addr, std::size_t bytes);

  /// Unregister by handle. Slots are tombstoned and recycled, never erased
  /// while the heater might hold them — the paper's element-reuse design.
  void unregister_region(std::size_t handle);

  /// Touch registered regions into the LLC, oldest registration first,
  /// limited by both the capacity budget and the saturation coverage.
  /// Returns lines re-fetched.
  std::uint64_t refresh();

  /// Cycles of one full heating pass (line touches + registry walk).
  Cycles pass_cycles() const;

  /// Fraction of the heating period one pass occupies, clamped to 1.
  double duty() const;

  /// Fraction of the registered (budgeted) bytes the heater actually keeps
  /// hot per period: 1 while the pass fits the period, then period/pass.
  double coverage() const;

  /// Application-side cost of one registry mutation: contended lock
  /// transfer + expected wait on an in-progress pass.
  Cycles mutation_cost();

  std::size_t live_regions() const { return registry_.live; }
  std::size_t slot_count() const { return registry_.regions.size(); }
  std::size_t registered_bytes() const { return registry_.registered_bytes; }
  std::size_t capacity_bytes() const { return capacity_; }
  std::uint64_t total_refreshed_lines() const { return refreshed_lines_; }

 private:
  Hierarchy* hier_;
  SimHeaterConfig config_;
  std::size_t capacity_;
  Cycles touch_cycles_;
  HeaterRegistry registry_;
  std::uint64_t refreshed_lines_ = 0;
  // Trace-only: the heater's timeline track for pass spans.
  SEMPERM_TRACE_ONLY(std::uint16_t trace_track_ = 0;)
};

}  // namespace semperm::cachesim
