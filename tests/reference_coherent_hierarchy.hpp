// tests/reference_coherent_hierarchy.hpp
//
// The coherent hierarchy as it was before the directory entry became the
// only coherence record: every core keeps its own MESI state map next to
// its L1/L2, and the directory keeps the sharer bitmap and the Modified
// holder beside it, two records of one fact kept in step on every
// transition. Retained (minus the audit and trace hooks, and with
// std::unordered_map for both tables) as the oracle for
// tests/test_coherence_diff.cpp, which replays randomized multi-core op
// sequences through both and requires identical cycles, counters, MESI
// states, residency and profiles. Its profile hooks count every site where
// it happens, into the instance's own snapshot, so they check the sites
// CoherentHierarchy reads from its other counters independently. Do not
// "optimise" this file: its value is being the old implementation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cachesim/arch.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/prefetch.hpp"
#include "coherence/mesi.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "obs/profiler.hpp"

namespace semperm::coherence::testing {

class ReferenceCoherentHierarchy {
 public:
  using ArchProfile = cachesim::ArchProfile;
  using SetAssocCache = cachesim::SetAssocCache;
  using FillReason = cachesim::FillReason;
  using LineClass = cachesim::LineClass;
  using ProfSite = obs::ProfSite;

  struct HeaterTouch {
    Cycles cycles = 0;
    bool cold = false;
  };

  ReferenceCoherentHierarchy(const ArchProfile& arch, unsigned cores)
      : arch_(arch) {
    SEMPERM_ASSERT(arch_.l1.present() && arch_.l2.present());
    SEMPERM_ASSERT(cores >= 1 && cores <= 64);
    cores_.reserve(cores);
    for (unsigned c = 0; c < cores; ++c) cores_.emplace_back(arch_);
    if (arch_.l3.present()) {
      llc_ = std::make_unique<SetAssocCache>("LLC", arch_.l3.size_bytes,
                                             arch_.l3.assoc);
      llc_latency_ = arch_.l3.hit_latency;
    }
  }

  Cycles access_line(unsigned core, Addr line, bool write = false) {
    SEMPERM_ASSERT(core < cores());
    CoreStack& cs = cores_[core];
    ++cs.stats.lines_touched;

    cachesim::AccessObservation obs{line, false, false};
    Cycles cost = 0;
    const unsigned level_cnt = llc_ ? 3u : 2u;
    unsigned serving = level_cnt;

    if (cs.l1.access(line)) {
      serving = 0;
      cost = arch_.l1.hit_latency;
      prof_.add(ProfSite::kL1Probe, 1, cost);
    } else if (cs.l2.access(line)) {
      serving = 1;
      cost = arch_.l2.hit_latency;
      prof_.add(ProfSite::kL2Probe, 1, cost);
    }

    if (serving <= 1) {
      if (write) {
        if (state(core, line) == MesiState::kShared) {
          ++coh_.snoops;
          ++coh_.upgrades;
          cost += arch_.snoop_latency;
          prof_.add(ProfSite::kUpgradeSnoop, 1, arch_.snoop_latency);
          invalidate_remotes(core, line);
        }
        set_state(core, line, MesiState::kModified);
      }
    } else {
      int owner = -1;
      std::uint64_t remotes = 0;
      prof_.add(ProfSite::kDirLookup, 1, 0);
      if (const auto dit = directory_.find(line); dit != directory_.end()) {
        remotes = dit->second.sharers & ~bit(core);
        const int o = dit->second.owner;
        if (o >= 0 && o != static_cast<int>(core)) owner = o;
      }
      if (owner >= 0) {
        ++coh_.snoops;
        ++coh_.interventions;
        ++coh_.dirty_writebacks;
        cost = arch_.intervention_latency;
        prof_.add(ProfSite::kIntervention, 1, cost);
        prof_.add(ProfSite::kWriteback, 1, 0);
        llc_fill(line, FillReason::kDemand, /*dirty=*/true);
        if (write) {
          cores_[owner].l1.invalidate(line);
          cores_[owner].l2.invalidate(line);
          drop_sharer(static_cast<unsigned>(owner), line);
          ++coh_.invalidations;
        } else {
          set_state(static_cast<unsigned>(owner), line, MesiState::kShared);
        }
      } else if (llc_ && llc_->access(line)) {
        serving = 2;
        cost = llc_latency_;
        prof_.add(ProfSite::kLlcProbe, 1, llc_latency_);
        if (remotes != 0) {
          if (write) {
            ++coh_.snoops;
            cost += arch_.snoop_latency;
            prof_.add(ProfSite::kWriteInvalidate, 1, arch_.snoop_latency);
            invalidate_remotes(core, line);
          } else {
            std::uint64_t rem = remotes;
            while (rem != 0) {
              const unsigned c = static_cast<unsigned>(std::countr_zero(rem));
              rem &= rem - 1;
              if (state(c, line) == MesiState::kExclusive) {
                set_state(c, line, MesiState::kShared);
                ++coh_.snoops;
                ++coh_.clean_downgrades;
                cost += arch_.snoop_latency;
                prof_.add(ProfSite::kCleanDowngrade, 1, arch_.snoop_latency);
              }
            }
          }
        }
      } else if (remotes != 0) {
        ++coh_.snoops;
        cost = arch_.intervention_latency;
        prof_.add(ProfSite::kRemoteForward, 1, cost);
        if (write) {
          invalidate_remotes(core, line);
        } else {
          std::uint64_t rem = remotes;
          while (rem != 0) {
            const unsigned c = static_cast<unsigned>(std::countr_zero(rem));
            rem &= rem - 1;
            if (state(c, line) == MesiState::kExclusive) {
              set_state(c, line, MesiState::kShared);
              ++coh_.clean_downgrades;
            }
          }
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

    if (serving > 0) {
      const auto ev = cs.l1.fill_line(line, FillReason::kDemand,
                                      LineClass::kNormal, false);
      if (ev) on_private_evict(core, 0, *ev, /*propagate_dirty=*/true);
      if (serving > 1) {
        const auto ev2 = cs.l2.fill_line(line, FillReason::kDemand,
                                         LineClass::kNormal, false);
        if (ev2) on_private_evict(core, 1, *ev2, /*propagate_dirty=*/true);
      }
    }

    if (serving > 1) {
      if (write) {
        set_state(core, line, MesiState::kModified);
      } else {
        const bool shared = remote_sharers(core, line) != 0;
        set_state(core, line,
                  shared ? MesiState::kShared : MesiState::kExclusive);
      }
    }
    if (write) cs.l1.mark_dirty(line);

    run_prefetchers(core, obs);
    cs.stats.total_cycles += cost;
    return cost;
  }

  HeaterTouch heater_touch_line(unsigned core, Addr line) {
    SEMPERM_ASSERT(llc_ != nullptr);
    CoreStack& cs = cores_[core];
    ++cs.stats.lines_touched;
    HeaterTouch t;
    const int owner = remote_modified(core, line);
    if (owner >= 0) {
      ++coh_.snoops;
      ++coh_.interventions;
      ++coh_.dirty_writebacks;
      prof_.add(ProfSite::kWriteback, 1, 0);
      set_state(static_cast<unsigned>(owner), line, MesiState::kShared);
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
    cs.stats.total_cycles += t.cycles;
    return t;
  }

  void pollute(unsigned core, std::size_t bytes) {
    SEMPERM_ASSERT(core < cores());
    CoreStack& cs = cores_[core];
    std::vector<Addr> mine;
    mine.reserve(cs.state.size());
    for (const auto& [line, st] : cs.state) mine.push_back(line);
    for (Addr line : mine) drop_sharer(core, line);
    cs.l1.flush();
    cs.l2.flush();
    cs.streamer.reset();
    if (!llc_) return;
    llc_->pollute(bytes);
    std::vector<Addr> gone;
    for (const auto& [line, entry] : directory_)
      if (entry.sharers != 0 && !llc_->contains(line)) gone.push_back(line);
    for (Addr line : gone)
      on_llc_evict(SetAssocCache::EvictedWay{line, false});
  }

  void flush_all() {
    for (auto& cs : cores_) {
      cs.l1.flush();
      cs.l2.flush();
      cs.state.clear();
      cs.streamer.reset();
    }
    if (llc_) llc_->flush();
    directory_.clear();
  }

  MesiState state(unsigned core, Addr line) const {
    const auto& st = cores_.at(core).state;
    const auto it = st.find(line);
    return it == st.end() ? MesiState::kInvalid : it->second;
  }

  bool privately_resident(unsigned core, Addr line) const {
    const CoreStack& cs = cores_.at(core);
    return cs.l1.contains(line) || cs.l2.contains(line);
  }

  unsigned cores() const { return static_cast<unsigned>(cores_.size()); }

  const cachesim::HierarchyStats& core_stats(unsigned core) const {
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

  const CoherenceStats& coherence_stats() const { return coh_; }

  const obs::ProfSnapshot& profile() const { return prof_; }

 private:
  struct CoreStack {
    SetAssocCache l1;
    SetAssocCache l2;
    cachesim::NextLinePrefetcher next_line;
    cachesim::AdjacentPairPrefetcher adjacent_pair;
    cachesim::StreamPrefetcher streamer;
    std::unordered_map<Addr, MesiState> state;
    std::vector<cachesim::PrefetchRequest> scratch;
    mutable cachesim::HierarchyStats stats;

    explicit CoreStack(const ArchProfile& a)
        : l1("L1", a.l1.size_bytes, a.l1.assoc),
          l2("L2", a.l2.size_bytes, a.l2.assoc),
          streamer(a.prefetch.stream_trigger, a.prefetch.stream_degree) {}
  };

  struct DirEntry {
    std::uint64_t sharers = 0;
    int owner = -1;  // the Modified holder
  };

  static std::uint64_t bit(unsigned core) { return std::uint64_t{1} << core; }

  std::uint64_t remote_sharers(unsigned core, Addr line) const {
    const auto it = directory_.find(line);
    if (it == directory_.end()) return 0;
    return it->second.sharers & ~bit(core);
  }

  int remote_modified(unsigned core, Addr line) const {
    const auto it = directory_.find(line);
    if (it == directory_.end()) return -1;
    const int owner = it->second.owner;
    return (owner >= 0 && owner != static_cast<int>(core)) ? owner : -1;
  }

  void set_state(unsigned core, Addr line, MesiState st) {
    prof_.add(ProfSite::kMesiTransition, 1, 0);
    cores_[core].state[line] = st;
    DirEntry& e = directory_[line];
    e.sharers |= bit(core);
    if (st == MesiState::kModified)
      e.owner = static_cast<int>(core);
    else if (e.owner == static_cast<int>(core))
      e.owner = -1;
  }

  void drop_sharer(unsigned core, Addr line) {
    prof_.add(ProfSite::kMesiTransition, 1, 0);
    cores_[core].state.erase(line);
    const auto it = directory_.find(line);
    if (it == directory_.end()) return;
    it->second.sharers &= ~bit(core);
    if (it->second.owner == static_cast<int>(core)) it->second.owner = -1;
    if (it->second.sharers == 0) directory_.erase(it);
  }

  void invalidate_remotes(unsigned core, Addr line) {
    std::uint64_t rem = remote_sharers(core, line);
    while (rem != 0) {
      const unsigned c = static_cast<unsigned>(std::countr_zero(rem));
      rem &= rem - 1;
      const auto it = cores_[c].state.find(line);
      if (it != cores_[c].state.end() && it->second == MesiState::kModified) {
        ++coh_.dirty_writebacks;
        prof_.add(ProfSite::kWriteback, 1, 0);
        if (llc_) llc_->mark_dirty(line);
      }
      cores_[c].l1.invalidate(line);
      cores_[c].l2.invalidate(line);
      drop_sharer(c, line);
      ++coh_.invalidations;
    }
  }

  void on_private_evict(unsigned core, unsigned level,
                        const SetAssocCache::EvictedWay& ev,
                        bool propagate_dirty) {
    CoreStack& cs = cores_[core];
    if (level == 0) {
      if (propagate_dirty && ev.dirty) {
        if (!cs.l2.mark_dirty(ev.line)) drop_sharer(core, ev.line);
        return;
      }
      if (!cs.l2.contains(ev.line)) drop_sharer(core, ev.line);
    } else {
      if (propagate_dirty && ev.dirty && llc_) llc_->mark_dirty(ev.line);
      if (!cs.l1.contains(ev.line)) drop_sharer(core, ev.line);
    }
  }

  void on_llc_evict(const SetAssocCache::EvictedWay& ev) {
    const auto it = directory_.find(ev.line);
    if (it == directory_.end()) return;
    std::uint64_t sharers = it->second.sharers;
    while (sharers != 0) {
      const unsigned c = static_cast<unsigned>(std::countr_zero(sharers));
      sharers &= sharers - 1;
      const auto st = cores_[c].state.find(ev.line);
      if (st != cores_[c].state.end() && st->second == MesiState::kModified) {
        ++coh_.dirty_writebacks;
        prof_.add(ProfSite::kWriteback, 1, 0);
      }
      cores_[c].l1.invalidate(ev.line);
      cores_[c].l2.invalidate(ev.line);
      drop_sharer(c, ev.line);
      ++coh_.back_invalidations;
      prof_.add(ProfSite::kBackInvalidate, 1, 0);
    }
  }

  void llc_fill(Addr line, FillReason reason, bool dirty) {
    if (!llc_) return;
    const auto ev = llc_->fill_line(line, reason, LineClass::kNormal, dirty);
    if (ev) on_llc_evict(*ev);
  }

  void run_prefetchers(unsigned core, const cachesim::AccessObservation& obs) {
    CoreStack& cs = cores_[core];
    cs.scratch.clear();
    const auto collect = [&cs](const cachesim::PrefetchRequest& req) {
      cs.scratch.push_back(req);
    };
    if (arch_.prefetch.l1_next_line) cs.next_line.observe(obs, collect);
    if (arch_.prefetch.l2_adjacent_pair)
      cs.adjacent_pair.observe(obs, collect);
    if (arch_.prefetch.l2_streamer) cs.streamer.observe(obs, collect);
    for (const auto& req : cs.scratch) prefetch_fill(core, req);
  }

  void prefetch_fill(unsigned core, const cachesim::PrefetchRequest& req) {
    std::uint64_t sharers = 0;
    if (const auto dit = directory_.find(req.line); dit != directory_.end())
      sharers = dit->second.sharers;
    if ((sharers & ~bit(core)) != 0) return;

    CoreStack& cs = cores_[core];
    const unsigned level_cnt = llc_ ? 3u : 2u;
    const unsigned target =
        std::min<unsigned>(req.target_level, level_cnt - 1);
    SetAssocCache* levels[3] = {&cs.l1, &cs.l2, llc_.get()};
    const bool was_private = (sharers & bit(core)) != 0;
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
    if (target + 1 < level_cnt) fill_if_absent_at(target + 1);
    if (target <= 1 && !was_private)
      set_state(core, req.line, MesiState::kExclusive);
  }

  ArchProfile arch_;
  std::vector<CoreStack> cores_;
  std::unique_ptr<SetAssocCache> llc_;
  Cycles llc_latency_ = 0;
  std::unordered_map<Addr, DirEntry> directory_;
  CoherenceStats coh_;
  obs::ProfSnapshot prof_;
};

}  // namespace semperm::coherence::testing
