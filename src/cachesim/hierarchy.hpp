// semperm/cachesim/hierarchy.hpp
//
// The full memory hierarchy: L1 → L2 → (optional) L3 → DRAM, with the
// prefetch units of the selected architecture attached. Trace-driven:
// callers present demand accesses (byte address + size) and receive the
// modelled cost in core cycles; the hierarchy updates cache state, runs the
// prefetchers, and keeps per-level statistics.
//
// Modelling notes (see DESIGN.md §3):
//  * Demand accesses are charged the hit latency of the level that serves
//    them (or DRAM latency); prefetch fills are free at issue time and
//    convert later demand misses into cheap hits — the same accounting the
//    paper's §4.2 architectural analysis uses.
//  * Caches are non-inclusive, non-exclusive (NINE): fills propagate toward
//    the core, evictions are independent per level.
//  * The heater touch path fills lines into the last-level cache without
//    charging the application (the heater runs on another core); its cost
//    model lives in heater.hpp.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cachesim/arch.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/prefetch.hpp"
#include "common/types.hpp"

namespace semperm::cachesim {

/// Per-level roll-up mirrored out of the underlying CacheStats so bench
/// emitters can report prefetch coverage and writeback traffic uniformly
/// without reaching into each SetAssocCache.
struct LevelSummary {
  std::string name;
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t prefetch_hits = 0;  // demand hits on prefetched lines
  std::uint64_t writebacks = 0;     // dirty lines displaced at this level

  /// Fraction of prefetch fills that covered a later demand access.
  double prefetch_coverage() const {
    return prefetch_fills > 0
               ? static_cast<double>(prefetch_hits) /
                     static_cast<double>(prefetch_fills)
               : 0.0;
  }
};

/// One demand access of a batch: [addr, addr+bytes), a load or a store.
struct DemandAccess {
  Addr addr;
  std::size_t bytes;
  bool write;
  bool operator==(const DemandAccess&) const = default;
};

struct HierarchyStats {
  std::uint64_t accesses = 0;
  std::uint64_t lines_touched = 0;
  std::uint64_t dram_fetches = 0;
  Cycles total_cycles = 0;
  std::vector<LevelSummary> levels;  // [0]=L1 ... refreshed by stats()
};

class Hierarchy {
 public:
  explicit Hierarchy(const ArchProfile& arch);

  /// Demand access covering [addr, addr+bytes). Returns modelled cycles.
  Cycles access(Addr addr, std::size_t bytes, bool write = false);

  /// A batch of demand accesses: the same modelled state, statistics and
  /// cycles as calling access(addr, bytes, write) on each element in
  /// order. A batch equal to the last clean one, with no other operation
  /// on the hierarchy since, is charged from that batch's record without
  /// walking a set (DESIGN.md §10.3). SimMem::batch sends them.
  Cycles access(std::span<const DemandAccess> batch);

  /// Demand access to a single cache line index.
  Cycles access_line(Addr line, bool write = false);

  /// Stream a batch of cache-line indices through the hierarchy: identical
  /// modelled state and per-level statistics to calling access_line() per
  /// element (each element counts as one access), without the per-line
  /// call/dispatch overhead. Steering streams each flow-table chunk through
  /// it; the heater calls heater_touch(), and the motifs run on
  /// CoherentHierarchy.
  Cycles simulate(std::span<const Addr> lines, bool write = false);

  /// Clear all cache levels and prefetcher state (emulated compute phase /
  /// cache clear between iterations, paper §4.1).
  void flush_all();

  /// Model a compute phase with a working set of `bytes`: private caches
  /// are wrecked outright; the LLC loses only what the stream displaces.
  /// On a 45 MiB Broadwell LLC a 24 MiB compute phase leaves recently-used
  /// match state resident; on a 20 MiB Sandy Bridge LLC it does not.
  void pollute(std::size_t bytes);

  /// Heater refresh of [addr, addr+bytes): pulls the lines into the shared
  /// (last-level) cache without charging the consumer. Returns the number
  /// of lines the heater had to fetch from DRAM (i.e. that had gone cold).
  std::uint64_t heater_touch(Addr addr, std::size_t bytes);

  /// Is the line holding `addr` resident at `level` (0-based from L1)?
  bool resident(unsigned level, Addr addr) const;

  // --- §6 hardware-supported locality (see ArchProfile) ----------------

  /// Tag [addr, addr+bytes) as network (match-queue) data: eligible for
  /// the dedicated network cache and the LLC way partition.
  void mark_network_region(Addr addr, std::size_t bytes);

  bool is_network_line(Addr line) const;

  /// The dedicated network cache, if the profile configures one.
  const SetAssocCache* network_cache() const { return netcache_.get(); }
  bool network_resident(Addr addr) const;

  unsigned level_count() const { return static_cast<unsigned>(levels_.size()); }
  const SetAssocCache& level(unsigned i) const { return levels_.at(i); }
  const ArchProfile& arch() const { return arch_; }
  const HierarchyStats& stats() const;

  void reset_stats();

  /// Batches charged from the record of a clean batch so far.
  std::uint64_t replayed_batches() const { return replayed_batches_; }

#if SEMPERM_TRACE
  /// Sample every level's per-owner occupancy counters (plus the network
  /// cache, if configured) onto the trace timeline — the fig6 epoch hook
  /// for the paper's occupancy-timeline curves (DESIGN.md §16).
  void trace_sample_occupancy(std::uint64_t sim_ts = obs::kStampNow) {
    for (auto& level : levels_) level.trace_sample_owner_occupancy(sim_ts);
    if (netcache_) netcache_->trace_sample_owner_occupancy(sim_ts);
  }
#endif

  /// Full hierarchy audit: every level's structural/accounting audit plus
  /// the cross-level conservation laws (DRAM fetches bounded by lines
  /// touched, byte accesses bounded by line accesses). Throws
  /// semperm::check::AuditError. No-op unless SEMPERM_AUDIT.
  void audit() const;

  /// Multi-line summary of per-level hit rates and prefetch coverage.
  std::string report() const;

 private:
  void run_prefetchers(const AccessObservation& obs);
  void prefetch_fill(const PrefetchRequest& req);

  /// Simulate a batch element by element, then record it if it was clean
  /// and drop the record if not.
  Cycles simulate_batch(std::span<const DemandAccess> batch);

  struct NetworkRange {
    Addr first_line;
    Addr last_line;
  };

  static constexpr unsigned kMaxLevels = 3;  // L1, L2 and an optional L3

  ArchProfile arch_;
  std::vector<SetAssocCache> levels_;  // [0]=L1, [1]=L2, [2]=L3 (optional)
  std::vector<Cycles> level_latency_;
  std::unique_ptr<SetAssocCache> netcache_;
  std::vector<NetworkRange> network_ranges_;
  NextLinePrefetcher next_line_;
  AdjacentPairPrefetcher adjacent_pair_;
  StreamPrefetcher streamer_;
  mutable HierarchyStats stats_;  // mutable: stats() refreshes .levels

  /// What a clean batch charged (DESIGN.md §10.3): its cycles, and the
  /// counters it moved besides `accesses`, which moves by its length.
  struct BatchCharge {
    Cycles cycles = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t net_hits = 0;
    std::uint64_t lines = 0;  // lines_touched
    bool operator==(const BatchCharge&) const = default;
  };
  /// The last clean batch. It stays valid while `lines_touched` (bumped by
  /// every demand path) and `ops_` (bumped by every other operation) hold
  /// the values it left.
  struct CleanBatch {
    std::vector<DemandAccess> accesses;  // keeps its capacity
    BatchCharge charge;
    std::uint64_t lines_touched = 0;
    std::uint64_t ops = 0;
    bool valid = false;
  };
  CleanBatch clean_batch_;
  std::uint64_t ops_ = 0;
  std::uint64_t replayed_batches_ = 0;
  // The streamer's state before the batch being simulated; copy-assigned
  // from streamer_, whose table has the same size, so nothing allocates.
  StreamPrefetcher streamer_before_;
};

}  // namespace semperm::cachesim
