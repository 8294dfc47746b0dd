#include "coherence/coherent_hierarchy.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>

#include "check/mesi_rules.hpp"
#include "common/assert.hpp"

namespace semperm::coherence {

using cachesim::AccessObservation;
using cachesim::FillReason;
using cachesim::LineClass;
using cachesim::PrefetchRequest;
using obs::ProfSite;

#if SEMPERM_TRACE
namespace {
/// Static event names for every MESI transition, so the probe can hand
/// the ring a string-literal pointer (it never copies names).
const char* mesi_transition_name(MesiState from, MesiState to) {
  static const char* const kNames[4][4] = {
      {"mesi I->I", "mesi I->S", "mesi I->E", "mesi I->M"},
      {"mesi S->I", "mesi S->S", "mesi S->E", "mesi S->M"},
      {"mesi E->I", "mesi E->S", "mesi E->E", "mesi E->M"},
      {"mesi M->I", "mesi M->S", "mesi M->E", "mesi M->M"},
  };
  return kNames[static_cast<unsigned>(from)][static_cast<unsigned>(to)];
}
}  // namespace
#endif

CoherentHierarchy::CoreStack::CoreStack(const ArchProfile& a)
    : l1("L1", a.l1.size_bytes, a.l1.assoc),
      l2("L2", a.l2.size_bytes, a.l2.assoc),
      streamer(a.prefetch.stream_trigger, a.prefetch.stream_degree) {}

CoherentHierarchy::CoherentHierarchy(const ArchProfile& arch, unsigned cores)
    : arch_(arch) {
  SEMPERM_ASSERT(arch_.l1.present() && arch_.l2.present());
  SEMPERM_ASSERT_MSG(cores >= 1 && cores <= 64,
                     "sharer bitmap is 64 bits wide");
  cores_.reserve(cores);
  for (unsigned c = 0; c < cores; ++c) cores_.emplace_back(arch_);
  // Every core's L1/L2 shares the track name "L1"/"L2" on the event
  // timeline, but occupancy lanes must be separable per cache instance
  // for the summarizer's conservation check — give each its own prefix.
  SEMPERM_TRACE_ONLY(for (unsigned c = 0; c < cores; ++c) {
    cores_[c].l1.trace_set_occupancy_prefix("core" + std::to_string(c) +
                                            ".L1");
    cores_[c].l2.trace_set_occupancy_prefix("core" + std::to_string(c) +
                                            ".L2");
  })
  if (arch_.l3.present()) {
    llc_ = std::make_unique<SetAssocCache>("LLC", arch_.l3.size_bytes,
                                           arch_.l3.assoc);
    llc_latency_ = arch_.l3.hit_latency;
  }
}

void CoherentHierarchy::set_state(DirIt it, unsigned core, MesiState st) {
  DirEntry& e = it->second;
  SEMPERM_AUDIT_CHECK(st != MesiState::kInvalid,
                      "set_state(I) for line " << it->first
                                               << ": use drop_sharer");
#if SEMPERM_AUDIT
  check::require_mesi_transition(e.state_of(core), st, core, it->first);
#endif
  SEMPERM_TRACE_ONLY(
      if (semperm::obs::trace_on()) {
        const MesiState from = e.state_of(core);
        if (from != st)
          SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCoherence,
                                mesi_transition_name(from, st), 0, it->first,
                                static_cast<double>(core));
      })
  prof_.add(ProfSite::kMesiTransition, 1, 0);
  e.sharers |= bit(core);
  if (st != MesiState::kShared) {
    e.owner = static_cast<int>(core);
    e.modified = st == MesiState::kModified;
  } else if (e.owner == static_cast<int>(core)) {
    e.owner = -1;
    e.modified = false;
  }
}

void CoherentHierarchy::drop_sharer(DirIt it, unsigned core) {
  DirEntry& e = it->second;
  SEMPERM_TRACE_ONLY(
      if (semperm::obs::trace_on()) {
        const MesiState from = e.state_of(core);
        if (from != MesiState::kInvalid)
          SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCoherence,
                                mesi_transition_name(from, MesiState::kInvalid),
                                0, it->first, static_cast<double>(core));
      })
  prof_.add(ProfSite::kMesiTransition, 1, 0);
  e.sharers &= ~bit(core);
  if (e.owner == static_cast<int>(core)) {
    e.owner = -1;
    e.modified = false;
  }
  if (e.sharers == 0) {
    // No private copy remains, so the line can no longer be an inclusion
    // exemption.
    SEMPERM_AUDIT_ONLY(audit_noninclusive_.erase(it->first);)
    directory_.erase(it);
  }
}

void CoherentHierarchy::invalidate_remotes(DirIt it, unsigned core) {
  const Addr line = it->first;
  std::uint64_t rem = it->second.sharers & ~bit(core);
  const int dirty = it->second.dirty_owner();
  while (rem != 0) {
    const unsigned c = static_cast<unsigned>(std::countr_zero(rem));
    rem &= rem - 1;
    if (static_cast<int>(c) == dirty) {
      // Write the dirty data back into the shared level before dropping.
      ++coh_.dirty_writebacks;
      if (llc_) llc_->mark_dirty(line);
    }
    cores_[c].l1.invalidate(line);
    cores_[c].l2.invalidate(line);
    drop_sharer(it, c);  // the last remote out may erase the entry
    ++coh_.invalidations;
  }
}

void CoherentHierarchy::private_line_gone(unsigned core, Addr line) {
  // The victim's data fate (writeback or silent drop) travels with the
  // per-way dirty bits, exactly as in the single-core model; leaving the
  // private stack is a local event that just clears the sharer bit. A
  // private copy always carries its sharer bit, so the entry exists.
  const auto it = directory_.find(line);
  SEMPERM_ASSERT(it != directory_.end());
  drop_sharer(it, core);
}

void CoherentHierarchy::on_private_evict(unsigned core, unsigned level,
                                         const SetAssocCache::EvictedWay& ev,
                                         bool propagate_dirty) {
  CoreStack& cs = cores_[core];
  // Mirror the single-core NINE demand path: a dirty victim is accepted by
  // the next level out only if already resident there (mark_dirty no-ops
  // otherwise). Prefetch-fill victims drop their dirty bit silently, as
  // the single-core prefetch_fill does.
  //
  // The victim was just displaced from `level`, so only the sibling level
  // decides whether the line is still privately resident — and for an L1
  // dirty victim the mark_dirty probe already answers that (it reports
  // whether the L2 copy it dirtied exists), so no second set walk is
  // needed.
  if (level == 0) {
    if (propagate_dirty && ev.dirty) {
      if (!cs.l2.mark_dirty(ev.line)) private_line_gone(core, ev.line);
      return;
    }
    if (!cs.l2.contains(ev.line)) private_line_gone(core, ev.line);
  } else {
    if (propagate_dirty && ev.dirty && llc_) llc_->mark_dirty(ev.line);
    if (!cs.l1.contains(ev.line)) private_line_gone(core, ev.line);
  }
}

void CoherentHierarchy::on_llc_evict(const SetAssocCache::EvictedWay& ev) {
  // Inclusive LLC: the victim may not live in any private cache either.
  const auto it = directory_.find(ev.line);
  if (it == directory_.end()) return;
  std::uint64_t sharers = it->second.sharers;
  const int dirty = it->second.dirty_owner();
  while (sharers != 0) {
    const unsigned c = static_cast<unsigned>(std::countr_zero(sharers));
    sharers &= sharers - 1;
    if (static_cast<int>(c) == dirty)
      ++coh_.dirty_writebacks;  // drains to DRAM; LLC copy is already gone
    cores_[c].l1.invalidate(ev.line);
    cores_[c].l2.invalidate(ev.line);
    drop_sharer(it, c);  // the last sharer out erases the entry
    ++coh_.back_invalidations;
    SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCoherence,
                          "back_invalidation", 0, ev.line,
                          static_cast<double>(c));
  }
}

void CoherentHierarchy::llc_fill(Addr line, FillReason reason, bool dirty) {
  if (!llc_) return;
  const auto ev = llc_->fill_line(line, reason, LineClass::kNormal, dirty);
  if (ev) on_llc_evict(*ev);
  // The LLC now holds the line: inclusion is restored for it.
  SEMPERM_AUDIT_ONLY(audit_noninclusive_.erase(line);)
}

Cycles CoherentHierarchy::access(unsigned core, Addr addr, std::size_t bytes,
                                 bool write) {
  SEMPERM_ASSERT(bytes > 0);
  Cycles total = 0;
  const Addr first = line_of(addr);
  const Addr last = line_of(addr + bytes - 1);
  for (Addr line = first; line <= last; ++line)
    total += access_line(core, line, write);
  ++cores_[core].stats.accesses;
  return total;
}

Cycles CoherentHierarchy::access_line(unsigned core, Addr line, bool write) {
  SEMPERM_ASSERT(core < cores());
  CoreStack& cs = cores_[core];
  ++cs.stats.lines_touched;

  AccessObservation obs{line, /*l1_hit=*/false, /*l2_hit=*/false};
  Cycles cost = 0;
  // Serving levels: 0=L1, 1=L2, 2=shared LLC, >=count means DRAM/remote.
  const unsigned level_cnt = llc_ ? 3u : 2u;
  unsigned serving = level_cnt;
  // The sets the private probes walked, for their demand fills
  // (cache.hpp fill_missed).
  std::size_t l1_set = 0;
  std::size_t l2_set = 0;

  if (cs.l1.access(line, l1_set)) {
    serving = 0;
    cost = arch_.l1.hit_latency;
  } else if (cs.l2.access(line, l2_set)) {
    serving = 1;
    cost = arch_.l2.hit_latency;
  }

  if (serving <= 1) {
    // Private hit. Reads proceed in any state and never consult the
    // directory; a write probes it once. A write to a Shared copy needs
    // ownership (upgrade): snoop out and invalidate the other copies.
    if (write) {
      const auto it = directory_.find_or_insert(line);
      if (it->second.state_of(core) == MesiState::kShared) {
        ++coh_.snoops;
        ++coh_.upgrades;
        SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCoherence, "upgrade", 0,
                              line, static_cast<double>(core));
        cost += arch_.snoop_latency;
        invalidate_remotes(it, core);
      }
      set_state(it, core, MesiState::kModified);
    }
  } else {
    // Private miss: one directory probe arbitrates before the shared level
    // does. The entry answers both questions — who else holds a copy, and
    // whether one of them owns it (a remote E or M copy can only be the
    // owner). The remote transitions below use the probed entry, so each
    // runs before any fill that could move it.
    const auto it = directory_.find(line);
    std::uint64_t remotes = 0;
    int owner = -1;  // the remote E-or-M holder
    int dirty = -1;  // the remote M holder
    if (it != directory_.end()) {
      remotes = it->second.sharers & ~bit(core);
      if (it->second.owner != static_cast<int>(core)) {
        owner = it->second.owner;
        dirty = it->second.dirty_owner();
      }
    }
    if (dirty >= 0) {
      // Cache-to-cache intervention out of a remote Modified copy. The
      // owner writes back into the shared level and downgrades (M→S on a
      // read, M→I on a write).
      ++coh_.snoops;
      ++coh_.interventions;
      ++coh_.dirty_writebacks;
      SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCoherence, "intervention",
                            0, line, static_cast<double>(dirty));
      cost = arch_.intervention_latency;
      prof_.add(ProfSite::kIntervention, 1, cost);
      const unsigned o = static_cast<unsigned>(dirty);
      if (write) {
        cores_[o].l1.invalidate(line);
        cores_[o].l2.invalidate(line);
        drop_sharer(it, o);
        ++coh_.invalidations;
      } else {
        set_state(it, o, MesiState::kShared);
      }
      llc_fill(line, FillReason::kDemand, /*dirty=*/true);
    } else if (llc_ && llc_->access(line)) {
      serving = 2;
      cost = llc_latency_;
      if (write) {
        if (remotes != 0) {
          ++coh_.snoops;
          cost += arch_.snoop_latency;
          prof_.add(ProfSite::kWriteInvalidate, 1, arch_.snoop_latency);
          invalidate_remotes(it, core);
        }
      } else if (owner >= 0) {
        // A remote Exclusive copy must observe the read and downgrade;
        // Shared copies need no action (directory filters the snoop).
        set_state(it, static_cast<unsigned>(owner), MesiState::kShared);
        ++coh_.snoops;
        ++coh_.clean_downgrades;
        cost += arch_.snoop_latency;
        prof_.add(ProfSite::kCleanDowngrade, 1, arch_.snoop_latency);
      }
    } else if (remotes != 0) {
      // Remote clean copy not served by a shared level: always the case on
      // KNL (no L3), and possible elsewhere through the prefetch inclusion
      // leak (L1-prefetched lines bypass the LLC). The copy is forwarded
      // cache-to-cache.
      ++coh_.snoops;
      cost = arch_.intervention_latency;
      prof_.add(ProfSite::kRemoteForward, 1, cost);
      if (write) {
        invalidate_remotes(it, core);
      } else if (owner >= 0) {
        set_state(it, static_cast<unsigned>(owner), MesiState::kShared);
        ++coh_.clean_downgrades;
      }
      if (llc_) llc_fill(line, FillReason::kDemand, /*dirty=*/false);
    } else {
      cost = arch_.dram_latency;
      ++cs.stats.dram_fetches;
      prof_.add(ProfSite::kDramFill, 1, cost);
      if (llc_) llc_fill(line, FillReason::kDemand, /*dirty=*/false);
    }
  }
  obs.l1_hit = (serving == 0);
  obs.l2_hit = (serving == 1);

  // Fill the private levels closer to the core than the serving level,
  // exactly as the single-core Hierarchy does, into the sets their probes
  // missed in. A back-invalidation above may have emptied other ways of
  // those sets since; the fill takes its hole from the ways live now.
  if (serving > 0) {
    // L1 before L2, matching the single-core fill loop: the L1 victim's
    // dirty bit must land on its L2 copy before L2's own fill can evict it.
    const auto ev = cs.l1.fill_missed(l1_set, line, FillReason::kDemand);
    if (ev) on_private_evict(core, 0, *ev, /*propagate_dirty=*/true);
    if (serving > 1) {
      const auto ev2 = cs.l2.fill_missed(l2_set, line, FillReason::kDemand);
      if (ev2) on_private_evict(core, 1, *ev2, /*propagate_dirty=*/true);
    }
  }

  // MESI state after the access. The fills may have moved or erased
  // entries, so the directory is probed afresh; remote copies were
  // invalidated above on every write path.
  if (serving > 1) {
    const auto it = directory_.find_or_insert(line);
    const bool shared = (it->second.sharers & ~bit(core)) != 0;
    set_state(it, core,
              write    ? MesiState::kModified
              : shared ? MesiState::kShared
                       : MesiState::kExclusive);
  }
  if (write) {
    // Write-back: record the store at the level closest to the core.
    cs.l1.mark_dirty(line);
  }

  // Before the prefetchers run (they may legitimately evict the accessed
  // line again), the line is resident in L1 and must carry MESI state.
  SEMPERM_AUDIT_CHECK(state(core, line) != MesiState::kInvalid,
                      "core " << core << " finished an access to line " << line
                              << " without MESI state");
  run_prefetchers(core, obs);
  SEMPERM_AUDIT_ONLY(audit_line(line);)
  cs.stats.total_cycles += cost;
  SEMPERM_TRACE_CLOCK_ADVANCE(cost);
  return cost;
}

void CoherentHierarchy::run_prefetchers(unsigned core,
                                        const AccessObservation& obs) {
  CoreStack& cs = cores_[core];
  // Each request fills as its unit emits it (prefetch.hpp).
  const auto fill = [this, core](const PrefetchRequest& req) {
    prefetch_fill(core, req);
  };
  if (arch_.prefetch.l1_next_line) cs.next_line.observe(obs, fill);
  if (arch_.prefetch.l2_adjacent_pair) cs.adjacent_pair.observe(obs, fill);
  if (arch_.prefetch.l2_streamer) cs.streamer.observe(obs, fill);
}

void CoherentHierarchy::prefetch_fill(unsigned core,
                                      const PrefetchRequest& req) {
  // A prefetch that snoop-hits another core's copy is squashed (hardware
  // prefetchers do not trigger interventions). With one core this path is
  // identical to the single-core Hierarchy's. One directory probe answers
  // both questions: bit(core) is "this core already holds a private copy".
  std::uint64_t sharers = 0;
  if (const auto dit = directory_.find(req.line); dit != directory_.end())
    sharers = dit->second.sharers;
  if ((sharers & ~bit(core)) != 0) return;

  CoreStack& cs = cores_[core];
  const unsigned level_cnt = llc_ ? 3u : 2u;
  const unsigned target = std::min<unsigned>(req.target_level, level_cnt - 1);
  SetAssocCache* levels[3] = {&cs.l1, &cs.l2, llc_.get()};
  const bool was_private = (sharers & bit(core)) != 0;
  // fill_line_if_absent fuses the old `contains() ? skip : fill()` pair
  // into one set walk per level; a resident target squashes the prefetch
  // without an LRU refresh, exactly as the unfused guard behaved.
  auto fill_if_absent_at = [&](unsigned lvl) {
    const auto out = levels[lvl]->fill_line_if_absent(
        req.line, FillReason::kPrefetch, LineClass::kNormal, false);
    if (out.evicted) {
      if (lvl <= 1)
        on_private_evict(core, lvl, *out.evicted, /*propagate_dirty=*/false);
      else
        on_llc_evict(*out.evicted);
    }
    return out.filled;
  };
  if (!fill_if_absent_at(target)) return;
  // L2 prefetches also land in the LLC (the fill passes through it).
  if (target + 1 < level_cnt) fill_if_absent_at(target + 1);

  // A line pulled into a private level arrives Exclusive (nobody else
  // holds it — we squashed otherwise); an existing private state stands.
  if (target <= 1 && !was_private)
    set_state(directory_.find_or_insert(req.line), core,
              MesiState::kExclusive);

  // The L1 next-line prefetcher fills L1+L2 without touching the LLC — the
  // documented inclusion leak. Record the exemption so the inclusion audit
  // can tell it apart from a genuine protocol bug.
  SEMPERM_AUDIT_ONLY(
      if (target <= 1 && llc_ && !llc_->contains(req.line))
        audit_noninclusive_.insert(req.line);
      audit_line(req.line);)
}

CoherentHierarchy::HeaterTouch CoherentHierarchy::heater_touch_line(
    unsigned core, Addr line) {
  SEMPERM_ASSERT_MSG(llc_ != nullptr,
                     "heater streaming needs a shared LLC (not KNL)");
  CoreStack& cs = cores_[core];
  ++cs.stats.lines_touched;
  HeaterTouch t;
  const auto it = directory_.find(line);
  const int owner = it == directory_.end() ? -1 : it->second.dirty_owner();
  if (owner >= 0 && owner != static_cast<int>(core)) {
    // The application holds the line Modified: the heater's read forces a
    // writeback and an M→S downgrade, but the line stays warm.
    ++coh_.snoops;
    ++coh_.interventions;
    ++coh_.dirty_writebacks;
    SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCoherence, "intervention",
                          0, line, static_cast<double>(owner));
    set_state(it, static_cast<unsigned>(owner), MesiState::kShared);
    t.cycles = arch_.intervention_latency;
    llc_fill(line, FillReason::kHeater, /*dirty=*/true);
  } else if (llc_->contains(line)) {
    t.cycles = llc_latency_;
    llc_fill(line, FillReason::kHeater, /*dirty=*/false);
  } else {
    t.cycles = arch_.dram_latency;
    t.cold = true;
    ++cs.stats.dram_fetches;
    llc_fill(line, FillReason::kHeater, /*dirty=*/false);
  }
  prof_.add(ProfSite::kHeaterTouch, 1, t.cycles);
  SEMPERM_AUDIT_ONLY(audit_line(line);)
  cs.stats.total_cycles += t.cycles;
  SEMPERM_TRACE_CLOCK_ADVANCE(t.cycles);
  return t;
}

void CoherentHierarchy::pollute(unsigned core, std::size_t bytes) {
  SEMPERM_ASSERT(core < cores());
  CoreStack& cs = cores_[core];
  // The polluting core's private stack is wrecked outright. The flush of
  // its L1/L2 counts the dirty-way writebacks, mirroring the single-core
  // pollute(); dropping its sharer bits is a local event, not protocol
  // traffic.
  cs.l1.flush();
  cs.l2.flush();
  cs.streamer.reset();
  if (llc_) llc_->pollute(bytes);
  // One directory pass drops the core's bits and collects the lines that
  // other cores still share but whose LLC copy the stream displaced; those
  // are back-invalidated after the pass to repair inclusion.
  pollute_gone_.clear();
  directory_.for_each_erasable([&](DirIt it) {
    const Addr line = it->first;
    const bool others = (it->second.sharers & ~bit(core)) != 0;
    if ((it->second.sharers & bit(core)) != 0) drop_sharer(it, core);
    if (others && llc_ && !llc_->contains(line)) pollute_gone_.push_back(line);
  });
  for (Addr line : pollute_gone_)
    on_llc_evict(SetAssocCache::EvictedWay{line, false});
  SEMPERM_AUDIT_ONLY(audit();)
}

void CoherentHierarchy::flush_all() {
  for (auto& cs : cores_) {
    cs.l1.flush();
    cs.l2.flush();
    cs.streamer.reset();
  }
  if (llc_) llc_->flush();
  // Wholesale reset of all line state; per-line transitions (all → I) are
  // trivially legal.
  directory_.clear();
  SEMPERM_AUDIT_ONLY(audit_noninclusive_.clear();)
}

MesiState CoherentHierarchy::state(unsigned core, Addr line) const {
  SEMPERM_ASSERT(core < cores());
  const auto it = directory_.find(line);
  return it == directory_.end() ? MesiState::kInvalid
                                : it->second.state_of(core);
}

bool CoherentHierarchy::privately_resident(unsigned core, Addr line) const {
  const CoreStack& cs = cores_.at(core);
  return cs.l1.contains(line) || cs.l2.contains(line);
}

const cachesim::HierarchyStats& CoherentHierarchy::core_stats(
    unsigned core) const {
  const CoreStack& cs = cores_.at(core);
  cs.stats.levels.clear();
  const SetAssocCache* levels[3] = {&cs.l1, &cs.l2, llc_.get()};
  for (const SetAssocCache* c : levels) {
    if (c == nullptr) continue;
    const auto& st = c->stats();
    cs.stats.levels.push_back(cachesim::LevelSummary{
        c->name(), st.demand_hits, st.demand_misses, st.prefetch_fills,
        st.prefetch_hits, st.writebacks});
  }
  return cs.stats;
}

obs::ProfSnapshot CoherentHierarchy::profile() const {
  obs::ProfSnapshot p = prof_;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;  // private misses: one directory probe each
  for (const CoreStack& cs : cores_) {
    l1_hits += cs.l1.stats().demand_hits;
    l2_hits += cs.l2.stats().demand_hits;
    l2_misses += cs.l2.stats().demand_misses;
  }
  p.add(ProfSite::kL1Probe, l1_hits, l1_hits * arch_.l1.hit_latency);
  p.add(ProfSite::kL2Probe, l2_hits, l2_hits * arch_.l2.hit_latency);
  if (llc_) {
    const std::uint64_t llc_hits = llc_->stats().demand_hits;
    p.add(ProfSite::kLlcProbe, llc_hits, llc_hits * llc_latency_);
  }
  p.add(ProfSite::kDirLookup, l2_misses, 0);
  p.add(ProfSite::kUpgradeSnoop, coh_.upgrades,
        coh_.upgrades * arch_.snoop_latency);
  p.add(ProfSite::kBackInvalidate, coh_.back_invalidations, 0);
  p.add(ProfSite::kWriteback, coh_.dirty_writebacks, 0);
  return p;
}

LlcOccupancy CoherentHierarchy::llc_occupancy() const {
  LlcOccupancy occ;
  if (!llc_) return occ;
  occ.capacity_lines = llc_->size_bytes() / kCacheLine;
  occ.heater_lines = llc_->resident_lines_filled_by(FillReason::kHeater);
  occ.other_lines = llc_->resident_lines() - occ.heater_lines;
  return occ;
}

#if SEMPERM_AUDIT
void CoherentHierarchy::audit_line(Addr line) const {
  const auto it = directory_.find(line);
  const bool tracked = it != directory_.end();
  const DirEntry e = tracked ? it->second : DirEntry{};
  SEMPERM_AUDIT_CHECK(!tracked || e.sharers != 0,
                      "directory entry for line " << line
                          << " has an empty sharer bitmap");
  SEMPERM_AUDIT_CHECK(
      e.owner < 0 ||
          (e.owner < static_cast<int>(cores()) &&
           e.sharers == bit(static_cast<unsigned>(e.owner))),
      "line " << line << " has owner " << e.owner << " alongside sharers 0x"
              << std::hex << e.sharers << std::dec
              << " (an Exclusive/Modified owner must be the sole sharer)");
  SEMPERM_AUDIT_CHECK(!e.modified || e.owner >= 0,
                      "line " << line << " is Modified with no owner");
  std::uint64_t copies = 0;
  for (unsigned c = 0; c < cores(); ++c)
    if (privately_resident(c, line)) copies |= bit(c);
  SEMPERM_AUDIT_CHECK((e.sharers & ~copies) == 0,
                      "core " << std::countr_zero(e.sharers & ~copies)
                              << " is a sharer of line " << line
                              << " without a private copy");
  SEMPERM_AUDIT_CHECK((copies & ~e.sharers) == 0,
                      "core " << std::countr_zero(copies & ~e.sharers)
                              << " holds a private copy of line " << line
                              << " without a sharer bit");
  if (llc_ && e.sharers != 0 && !llc_->contains(line))
    SEMPERM_AUDIT_CHECK(
        audit_noninclusive_.count(line) != 0,
        "LLC inclusion violated for line "
            << line
            << ": privately resident, absent from the LLC, and not a "
               "recorded prefetch leak");
}
#endif

void CoherentHierarchy::audit() const {
#if SEMPERM_AUDIT
  for (const auto& [line, entry] : directory_) audit_line(line);
  for (const auto& cs : cores_) {
    cs.l1.audit();
    cs.l2.audit();
  }
  if (llc_) llc_->audit();
  SEMPERM_AUDIT_CHECK(coh_.upgrades <= coh_.snoops,
                      "more upgrades than snoops ("
                          << coh_.upgrades << " > " << coh_.snoops << ")");
  SEMPERM_AUDIT_CHECK(coh_.interventions <= coh_.dirty_writebacks,
                      "more interventions than dirty writebacks ("
                          << coh_.interventions << " > "
                          << coh_.dirty_writebacks << ")");
#endif
}

#if SEMPERM_AUDIT
void CoherentHierarchy::audit_corrupt_state_for_test(unsigned core, Addr line,
                                                     MesiState st) {
  // Deliberately bypasses set_state: no legality check, and the other
  // sharers are left as they are. The next audit of `line` must throw.
  DirEntry& e = directory_.find_or_insert(line)->second;
  const bool owns = st == MesiState::kExclusive || st == MesiState::kModified;
  // semperm-analyze: allow(audit-mesi-bypass) -- deliberate corruption seam for the audit tests: bypassing set_state IS the point
  e.sharers |= bit(core);
  e.owner = owns ? static_cast<int>(core) : -1;  // semperm-analyze: allow(audit-mesi-bypass) -- the same seam
  e.modified = st == MesiState::kModified;
}
#endif

void CoherentHierarchy::reset_stats() {
  for (auto& cs : cores_) {
    cs.stats = cachesim::HierarchyStats{};
    cs.l1.reset_stats();
    cs.l2.reset_stats();
  }
  if (llc_) llc_->reset_stats();
  coh_ = CoherenceStats{};
  prof_ = obs::ProfSnapshot{};
}

std::string CoherentHierarchy::report() const {
  std::ostringstream os;
  os << arch_.name << " coherent hierarchy, " << cores() << " cores\n";
  for (unsigned c = 0; c < cores(); ++c) {
    const auto& cs = cores_[c];
    os << "  core " << c << ": " << cs.stats.lines_touched
       << " line accesses, " << cs.stats.dram_fetches << " DRAM fetches, "
       << cs.stats.total_cycles << " cycles (L1 hit-rate "
       << static_cast<int>(cs.l1.stats().hit_rate() * 100.0) << "%, L2 "
       << static_cast<int>(cs.l2.stats().hit_rate() * 100.0) << "%)\n";
  }
  if (llc_) {
    const auto& st = llc_->stats();
    const auto occ = llc_occupancy();
    os << "  LLC: hits " << st.demand_hits << ", misses " << st.demand_misses
       << ", writebacks " << st.writebacks << ", heater occupancy "
       << static_cast<int>(occ.heater_fraction() * 100.0) << "%\n";
  }
  os << "  coherence: " << coh_.snoops << " snoops, " << coh_.invalidations
     << " invalidations, " << coh_.interventions << " interventions, "
     << coh_.upgrades << " upgrades, " << coh_.dirty_writebacks
     << " dirty writebacks, " << coh_.back_invalidations
     << " back-invalidations\n";
  return os.str();
}

}  // namespace semperm::coherence
