// semperm/traffic/flow_table.hpp
//
// The flow-cache / steering-table layer (DESIGN.md §13.2): a set-
// associative table keyed by the flow 5-tuple hash, one cache line per
// entry — the shape of a NIC steering cache or a software flow director.
// A steer() that misses falls back to the slow path (the caller walks the
// match engine's rule list), then installs the flow over the set's LRU
// victim.
//
// The host keeps 16 bytes per slot: the flow id and its LRU stamp. The
// simulated table is the one-line-per-entry layout — attach_sim()
// reserves one line per slot, and steer() charges every probe to
// cachesim::Hierarchy through those lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hot_path.hpp"
#include "common/types.hpp"
#include "memlayout/arena.hpp"
#include "traffic/flow.hpp"

namespace semperm::obs {
class Counter;
}  // namespace semperm::obs

namespace semperm::resilience {
class AdmissionFilter;
}  // namespace semperm::resilience

namespace semperm::traffic {

/// One steering-table entry's host state. The simulated entry is a whole
/// line (storage_bytes()); the host keeps only what steer() reads.
struct FlowSlot {
  std::uint64_t flow_id = 0;
  std::uint64_t last_use = 0;  // LRU stamp; 0 = empty (every stamp is >= 1)
};
static_assert(sizeof(FlowSlot) == 16, "the host keeps 16 bytes per slot");

struct FlowTableConfig {
  /// Total entries; must be a multiple of `ways`.
  std::size_t slots = std::size_t{1} << 16;
  unsigned ways = 8;
  /// Salt for the 5-tuple expansion/hash (keys set placement).
  std::uint64_t salt = 0x7ab1e5a17ULL;
};

/// Geometry rule of thumb for a population of `flows`: one slot per 8
/// standing flows (the hot tail fits, the cold mass recycles), power-of-
/// two sets, clamped to [2^12, 2^22] slots. At 10^6 flows this is an
/// 8 MiB table (inside a Sandy Bridge LLC); at 10^7 it is 128 MiB (far
/// outside any LLC) — the knob behind the bench_traffic crossover.
FlowTableConfig auto_geometry(std::uint64_t flows, unsigned ways = 8);

struct FlowTableStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Misses whose install was refused by the admission filter (a live
  /// victim outranked the candidate). Counted inside `misses`.
  std::uint64_t admission_rejects = 0;
  /// probe() traffic is accounted separately so the steer() identity
  /// lookups == hits + misses survives degraded (probe-only) operation.
  std::uint64_t probe_lookups = 0;
  std::uint64_t probe_hits = 0;

  double hit_ratio() const {
    return lookups > 0
               ? static_cast<double>(hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

class FlowTable {
 public:
  explicit FlowTable(FlowTableConfig cfg);

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Reserve a simulated region for the table so steer() can report the
  /// cache-line indices it probed. Call at most once, before steering.
  void attach_sim(memlayout::AddressSpace& space);

  /// Look up (and on miss, install) `flow_id`. Appends the simulated
  /// line index of every slot probed — plus the victim line written on a
  /// miss — to `lines_out` when attached and non-null; the caller streams
  /// those through Hierarchy::simulate in chunks. Returns hit.
  SEMPERM_HOT bool steer(std::uint64_t flow_id,
                         std::vector<Addr>* lines_out);

  /// Read-only lookup: probes the set like steer() (charging the same
  /// lines) but never installs on a miss — the degradation ladder's L3
  /// shed-new-flows lever. Returns hit.
  SEMPERM_HOT bool probe(std::uint64_t flow_id, std::vector<Addr>* lines_out);

  /// Attach a frequency-based admission filter (DESIGN.md §17.1): every
  /// steer() records the arrival, and a miss may only displace a *live*
  /// victim the filter admits against. nullptr detaches. The filter must
  /// outlive the table (or the detach).
  void set_admission(resilience::AdmissionFilter* filter) {
    admission_ = filter;
  }
  resilience::AdmissionFilter* admission() const { return admission_; }

  const FlowTableStats& stats() const { return stats_; }
  /// Flows currently resident (non-empty slots).
  std::size_t live_flows() const { return live_; }
  std::size_t slot_count() const { return cfg_.slots; }
  std::size_t set_count() const { return sets_; }
  unsigned ways() const { return cfg_.ways; }
  /// The simulated table's footprint: one line per slot.
  std::size_t storage_bytes() const { return cfg_.slots * kCacheLine; }
  bool sim_attached() const { return sim_attached_; }
  /// First simulated line index of the table (valid once attached).
  Addr sim_first_line() const { return sim_first_line_; }

 private:
  FlowTableConfig cfg_;
  std::size_t sets_;
  std::vector<FlowSlot> slots_;
  std::uint64_t stamp_ = 0;
  std::size_t live_ = 0;
  FlowTableStats stats_;
  bool sim_attached_ = false;
  Addr sim_first_line_ = 0;
  resilience::AdmissionFilter* admission_ = nullptr;
  // Cached registry handles (obs counters are process-lifetime stable).
  obs::Counter& hits_metric_;
  obs::Counter& misses_metric_;
  obs::Counter& evictions_metric_;
};

}  // namespace semperm::traffic
