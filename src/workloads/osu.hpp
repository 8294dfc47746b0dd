// semperm/workloads/osu.hpp
//
// The paper's modified OSU micro-benchmarks (§4.1), driven on the simulated
// substrate (cache hierarchy + wire model). All four of the paper's
// modifications are first-class options:
//
//  1. receives are pre-posted (a barrier guarantees it) — the driver posts
//     the window's receives before any message is processed;
//  2. the cache is cleared between iterations, emulating the compute phase
//     of a bulk-synchronous application;
//  3. the master thread is pinned — in simulation, trivially true;
//  4. unmatched entries pre-populate the posted-receive queue to set the
//     match search depth.
//
// Hot caching enters in two flavours matching §4.3's experiment set:
//  * kPerElement ("HC")     — the heater registry is mutated per queue
//    element, so every message charges lock/registry overhead (the paper's
//    original-matching + heater combination);
//  * kPooled     ("HC+LLA") — the dedicated element pool is registered
//    once; per-message overhead vanishes, only the refresh effect remains.
#pragma once

#include <cstdint>
#include <string>

#include "cachesim/arch.hpp"
#include "cachesim/hierarchy.hpp"
#include "fault/fault.hpp"
#include "match/factory.hpp"
#include "simmpi/network_model.hpp"

namespace semperm::workloads {

enum class HeaterMode { kOff, kPerElement, kPooled };

/// Default run seed; a --seed override re-salts the arena layout, the
/// default keeps the committed figure numbers bit-stable.
inline constexpr std::uint64_t kOsuDefaultSeed = 0x05ULL;

std::string heater_mode_name(HeaterMode mode);

struct OsuParams {
  cachesim::ArchProfile arch = cachesim::sandy_bridge();
  simmpi::NetworkModel net = simmpi::qdr_infiniband();
  match::QueueConfig queue;
  std::size_t msg_bytes = 1;
  std::size_t queue_depth = 1024;  // pre-populated unmatched PRQ entries
  std::size_t window = 16;         // messages per iteration (bw test)
  std::size_t iterations = 16;     // measured iterations
  std::size_t warmup_iterations = 2;
  bool clear_cache_between_iterations = true;
  /// Working set of the emulated compute phase between iterations. It
  /// displaces this much LLC content (LRU-first); private caches are
  /// cleared outright. 0 = full flush.
  std::size_t compute_working_set_bytes = 24ull * 1024 * 1024;
  HeaterMode heater = HeaterMode::kOff;
  std::size_t heater_capacity_bytes = 0;  // 0 = half the LLC
  std::uint64_t seed = kOsuDefaultSeed;
  /// Chaos axis (DESIGN.md §12): when set and active, each message rolls
  /// the same pure splitmix64 fate the simmpi transport rolls. Drops cost
  /// a retransmit round (timeout + retransfer + latency) per failed
  /// attempt, duplicates put an extra copy on the wire, delay spikes
  /// arrive late, and heater-stall rolls skip that iteration's refresh —
  /// the communication phase then runs against the cold cache a stalled
  /// heater pass would have left behind.
  const fault::FaultPlan* fault = nullptr;
  std::uint64_t retransmit_timeout_ns = 200'000;
};

struct OsuResult {
  double bandwidth_mibps = 0.0;   // window*bytes / iteration time
  double msg_time_ns = 0.0;       // mean per-message end-to-end time
  double match_ns_per_msg = 0.0;  // receive-side matching component
  double mean_search_depth = 0.0;
  double dram_fetches_per_msg = 0.0;
  double llc_hit_rate = 0.0;
  /// Full hierarchy counters at the end of the run (per-level prefetch
  /// coverage and writebacks included; see cachesim::LevelSummary).
  cachesim::HierarchyStats hier;
  /// Injector counters for the run's chaos axis (all zero when clean).
  fault::FaultStats faults;
  /// Iterations whose heater refresh was skipped by a stall roll.
  std::uint64_t stalled_refreshes = 0;
};

/// Modified osu_bw: streaming window of same-size messages.
OsuResult run_osu_bw(const OsuParams& params);

}  // namespace semperm::workloads
