// semperm/coherence/coherent_hierarchy.hpp
//
// Multi-core coherent cache hierarchy: N per-core private L1/L2 stacks
// (each a cachesim::SetAssocCache with the architecture's prefetchers)
// over one shared, inclusive LLC, with MESI line states kept in one
// directory-lite entry per privately held line.
//
// Modelling notes (see DESIGN.md § Coherence model):
//  * Private levels keep the single-core Hierarchy's NINE fill/evict
//    behaviour exactly; the shared LLC adds inclusion — an LLC eviction
//    back-invalidates every private copy of the victim.
//  * The directory entry is the only coherence record: the sharer bitmap,
//    the single E-or-M owner and whether it is Modified. Each core's MESI
//    state is derived from it (I if the core's bit is clear, E/M if it is
//    the owner, S otherwise), so a protocol decision probes one entry.
//  * Coherence cost is charged only when a remote core must act (the
//    directory filters everything else): S→M upgrades and write-miss
//    invalidations pay snoop_latency; a remote Modified copy pays
//    intervention_latency and writes back. A 1-core instance therefore
//    charges byte-identical cycles to the single-core Hierarchy — the
//    regression anchor tests/test_coherence_property.cpp relies on.
//  * KNL (no shared L3) is supported: misses snoop the other cores'
//    privates and a remote copy is supplied cache-to-cache at
//    intervention_latency, else DRAM serves.
//  * Known divergence from strict inclusion: the L1 next-line prefetcher
//    fills L1+L2 without touching the LLC (as in the single-core model).
//    The directory tracks those lines anyway, and pollute() repairs
//    inclusion by back-invalidating private lines the LLC no longer holds.
//  * The dedicated network cache / way-partition knobs of ArchProfile are
//    single-core §6 extensions and are not modelled here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cachesim/arch.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/prefetch.hpp"
#include "check/audit.hpp"
#include "coherence/line_map.hpp"
#include "coherence/mesi.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace semperm::coherence {

using cachesim::ArchProfile;
using cachesim::SetAssocCache;

class CoherentHierarchy {
 public:
  /// `cores` simulated cores sharing the LLC (<= 64, the sharer-bitmap
  /// width). Private L1/L2 geometry, latencies, prefetchers and coherence
  /// latencies all come from `arch`.
  CoherentHierarchy(const ArchProfile& arch, unsigned cores);

  /// Demand access from `core` covering [addr, addr+bytes).
  Cycles access(unsigned core, Addr addr, std::size_t bytes,
                bool write = false);

  /// Demand access from `core` to a single cache-line index.
  Cycles access_line(unsigned core, Addr line, bool write = false);

  /// Heater stream: pull `line` into the shared LLC from `core` without
  /// filling that core's private levels (the heater's re-reads are a
  /// non-temporal stream; its privates hold only the registry).
  struct HeaterTouch {
    Cycles cycles = 0;
    bool cold = false;  // had to come from DRAM
  };
  HeaterTouch heater_touch_line(unsigned core, Addr line);

  /// Compute phase on `core` with a working set of `bytes`: wrecks that
  /// core's privates, streams through the shared LLC, and repairs
  /// inclusion (private lines whose LLC copy was displaced are
  /// back-invalidated). Other cores' private stacks survive.
  void pollute(unsigned core, std::size_t bytes);

  /// Clear every cache level, all MESI state and the directory.
  void flush_all();

  // --- introspection ---------------------------------------------------

  /// MESI state of `line` in `core`'s private stack, derived from the
  /// directory entry (kInvalid if the core is not a sharer).
  MesiState state(unsigned core, Addr line) const;

  bool privately_resident(unsigned core, Addr line) const;

  unsigned cores() const { return static_cast<unsigned>(cores_.size()); }
  const ArchProfile& arch() const { return arch_; }
  const SetAssocCache& l1(unsigned core) const { return cores_.at(core).l1; }
  const SetAssocCache& l2(unsigned core) const { return cores_.at(core).l2; }
  /// Shared LLC, or nullptr when the architecture has none (KNL).
  const SetAssocCache* llc() const { return llc_.get(); }
  SetAssocCache* llc() { return llc_.get(); }

  /// Per-core counters, with .levels refreshed to [L1, L2, LLC] (the LLC
  /// summary is the shared cache, identical across cores).
  const cachesim::HierarchyStats& core_stats(unsigned core) const;

  const CoherenceStats& coherence_stats() const { return coh_; }

  /// Simulated-cycle profile since construction or the last reset_stats()
  /// (DESIGN.md §16.2). Its per-site cycles partition the cycles charged
  /// to all cores. The probe, directory-lookup, upgrade,
  /// back-invalidation and writeback sites are read from the counters
  /// above (each cache's access() runs only in access_line); the other
  /// sites are counted as they happen.
  obs::ProfSnapshot profile() const;

  /// Heater-vs-application LLC occupancy (zeros when there is no LLC).
  LlcOccupancy llc_occupancy() const;

#if SEMPERM_TRACE
  /// Sample per-owner occupancy counters for every cache in the
  /// hierarchy (each core's L1/L2 under a "coreN.LX" track prefix, the
  /// shared LLC under "LLC") onto the trace timeline. The coherent-mix
  /// epoch hook for the occupancy observatory (DESIGN.md §16).
  void trace_sample_occupancy(std::uint64_t sim_ts = obs::kStampNow) {
    for (auto& cs : cores_) {
      cs.l1.trace_sample_owner_occupancy(sim_ts);
      cs.l2.trace_sample_owner_occupancy(sim_ts);
    }
    if (llc_) llc_->trace_sample_owner_occupancy(sim_ts);
  }
#endif

  void reset_stats();

  std::string report() const;

  /// Full protocol audit (see DESIGN.md § Invariant audits): every
  /// directory entry is well formed (non-empty sharers; an owner is the
  /// sole sharer; Modified implies an owner), a core is a sharer exactly
  /// when it holds a private copy, LLC inclusion holds modulo the
  /// documented L1-prefetch leak, every cache level passes its own audit,
  /// and the coherence counters obey their conservation bounds.
  /// Throws semperm::check::AuditError. No-op unless SEMPERM_AUDIT. The
  /// per-access hook audits only the touched line (O(cores)); this walks
  /// everything.
  void audit() const;

#if SEMPERM_AUDIT
  /// Test seam: write `core`'s MESI state into the directory entry
  /// directly, bypassing the audited set_state mutator (no legality check,
  /// other sharers untouched) — the next audit of that line must throw.
  void audit_corrupt_state_for_test(unsigned core, Addr line, MesiState st);
#endif

 private:
  struct CoreStack {
    SetAssocCache l1;
    SetAssocCache l2;
    cachesim::NextLinePrefetcher next_line;
    cachesim::AdjacentPairPrefetcher adjacent_pair;
    cachesim::StreamPrefetcher streamer;
    mutable cachesim::HierarchyStats stats;

    CoreStack(const ArchProfile& a);
  };

  static std::uint64_t bit(unsigned core) { return std::uint64_t{1} << core; }

  /// The one coherence record of a privately held line. MESI allows at
  /// most one Exclusive-or-Modified holder, and then no other sharer, so
  /// the bitmap plus that owner determine every core's state. Written
  /// only by set_state/drop_sharer.
  struct DirEntry {
    std::uint64_t sharers = 0;  // bit c set <=> core c holds a private copy
    int owner = -1;             // the E-or-M holder, or -1
    bool modified = false;      // the owner holds the line Modified

    /// The core holding the line Modified, or -1.
    int dirty_owner() const { return modified ? owner : -1; }
    MesiState state_of(unsigned core) const {
      if ((sharers & bit(core)) == 0) return MesiState::kInvalid;
      if (owner != static_cast<int>(core)) return MesiState::kShared;
      return modified ? MesiState::kModified : MesiState::kExclusive;
    }
  };
  using DirIt = LineMap<DirEntry>::iterator;

  /// `core` enters state `st` (S, E or M) for the entry's line.
  void set_state(DirIt it, unsigned core, MesiState st);
  /// `core` leaves the entry's sharers (→ I); the last one out erases the
  /// entry, invalidating `it`.
  void drop_sharer(DirIt it, unsigned core);

  /// Remote copies of the entry's line leave S/E/M → I (write
  /// propagation), in one pass over the entry. An M copy writes back
  /// first. Charges nothing — callers charge the snoop.
  void invalidate_remotes(DirIt it, unsigned core);

  /// Line no longer resident in either private level of `core`: drop the
  /// sharer bit (the data's fate travels with the per-way dirty bits).
  void private_line_gone(unsigned core, Addr line);

  /// Handle a private-level fill eviction exactly like the single-core
  /// Hierarchy (a demand-fill dirty victim propagates outward; a
  /// prefetch-fill victim's dirty bit is dropped), then finalize MESI
  /// state if the line left the private stack entirely.
  void on_private_evict(unsigned core, unsigned level,
                        const SetAssocCache::EvictedWay& ev,
                        bool propagate_dirty);

  /// Inclusive-LLC eviction: back-invalidate every private copy.
  void on_llc_evict(const SetAssocCache::EvictedWay& ev);

  /// Fill `line` into the shared LLC, handling inclusion victims.
  void llc_fill(Addr line, cachesim::FillReason reason, bool dirty);

  void run_prefetchers(unsigned core, const cachesim::AccessObservation& obs);
  void prefetch_fill(unsigned core, const cachesim::PrefetchRequest& req);

#if SEMPERM_AUDIT
  /// Cross-core MESI invariants for one line (the per-access hook).
  void audit_line(Addr line) const;
#endif

  ArchProfile arch_;
  std::vector<CoreStack> cores_;
  std::unique_ptr<SetAssocCache> llc_;  // null on KNL
  Cycles llc_latency_ = 0;
  LineMap<DirEntry> directory_;
  CoherenceStats coh_;
  // The profile sites no other counter isolates (profile() adds the rest).
  obs::ProfSnapshot prof_;
  // pollute()'s back-invalidation list, kept to reuse its capacity.
  std::vector<Addr> pollute_gone_;
  // Audit-only: lines legitimately violating LLC inclusion through the
  // documented L1-prefetch leak (filled privately without an LLC copy).
  // Entries retire when the LLC acquires the line or the last private copy
  // leaves.
  SEMPERM_AUDIT_ONLY(std::unordered_set<Addr> audit_noninclusive_;)
};

}  // namespace semperm::coherence
