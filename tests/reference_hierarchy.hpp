// tests/reference_hierarchy.hpp
//
// The single-core Hierarchy as it was before a missed probe handed its set
// to the demand fill and the prefetch units filled as they emitted: every
// level is probed, then each demand fill walks its set again, and the
// prefetch requests are collected into a list and filled afterwards, each
// behind a contains() guard. It sits on ReferenceSetAssocCache
// (reference_cache.hpp), so it shares no probe or fill code with the
// production cache; the prefetch units are the production ones, collected
// through a lambda. Retained (minus the audit and trace hooks) as the
// oracle for tests/test_hierarchy_diff.cpp. Do not "optimise" this file:
// its value is being the old implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cachesim/arch.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/prefetch.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "reference_cache.hpp"

namespace semperm::cachesim::testing {

class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const ArchProfile& arch)
      : arch_(arch),
        streamer_(arch.prefetch.stream_trigger, arch.prefetch.stream_degree) {
    SEMPERM_ASSERT(arch_.l1.present() && arch_.l2.present());
    levels_.emplace_back("L1", arch_.l1.size_bytes, arch_.l1.assoc);
    level_latency_.push_back(arch_.l1.hit_latency);
    levels_.emplace_back("L2", arch_.l2.size_bytes, arch_.l2.assoc);
    level_latency_.push_back(arch_.l2.hit_latency);
    if (arch_.l3.present()) {
      levels_.emplace_back("L3", arch_.l3.size_bytes, arch_.l3.assoc);
      level_latency_.push_back(arch_.l3.hit_latency);
    }
    if (arch_.network_cache.present()) {
      netcache_ = std::make_unique<ReferenceSetAssocCache>(
          "NetC", arch_.network_cache.size_bytes, arch_.network_cache.assoc);
    }
    if (arch_.llc_reserved_ways > 0)
      levels_.back().set_partition(arch_.llc_reserved_ways);
  }

  Cycles access(Addr addr, std::size_t bytes, bool write = false) {
    SEMPERM_ASSERT(bytes > 0);
    Cycles total = 0;
    const Addr first = line_of(addr);
    const Addr last = line_of(addr + bytes - 1);
    for (Addr line = first; line <= last; ++line)
      total += access_line(line, write);
    ++stats_.accesses;
    return total;
  }

  Cycles simulate(std::span<const Addr> lines, bool write = false) {
    Cycles total = 0;
    for (const Addr line : lines) total += access_line(line, write);
    stats_.accesses += lines.size();
    return total;
  }

  Cycles access_line(Addr line, bool write = false) {
    ++stats_.lines_touched;

    const bool network = !network_ranges_.empty() && is_network_line(line);
    const LineClass cls = network ? LineClass::kNetwork : LineClass::kNormal;

    if (network && netcache_ != nullptr && netcache_->access(line)) {
      if (write) netcache_->mark_dirty(line);
      stats_.total_cycles += arch_.network_cache.hit_latency;
      return arch_.network_cache.hit_latency;
    }

    AccessObservation obs{line, /*l1_hit=*/false, /*l2_hit=*/false};
    Cycles cost = 0;
    unsigned serving_level = level_count();
    const unsigned first_level = (network && netcache_ != nullptr) ? 1u : 0u;
    for (unsigned lvl = first_level; lvl < level_count(); ++lvl) {
      if (levels_[lvl].access(line)) {
        serving_level = lvl;
        cost = level_latency_[lvl];
        break;
      }
    }
    if (serving_level == level_count()) {
      cost = arch_.dram_latency;
      ++stats_.dram_fetches;
    }
    obs.l1_hit = (serving_level == 0);
    obs.l2_hit = (serving_level == 1);

    for (unsigned lvl = first_level;
         lvl < serving_level && lvl < level_count(); ++lvl) {
      const auto evicted =
          levels_[lvl].fill_line(line, FillReason::kDemand, cls);
      if (evicted && evicted->dirty && lvl + 1 < level_count())
        levels_[lvl + 1].mark_dirty(evicted->line);
    }
    if (network && netcache_ != nullptr)
      netcache_->fill_line(line, FillReason::kDemand, LineClass::kNetwork,
                           write);

    if (write) {
      if (!(network && netcache_ != nullptr)) {
        if (first_level < level_count()) levels_[first_level].mark_dirty(line);
      }
    }

    run_prefetchers(obs);
    stats_.total_cycles += cost;
    return cost;
  }

  void flush_all() {
    for (auto& lvl : levels_) lvl.flush();
    if (netcache_) netcache_->flush();
    streamer_.reset();
  }

  void pollute(std::size_t bytes) {
    for (unsigned i = 0; i + 1 < level_count(); ++i) levels_[i].flush();
    levels_.back().pollute(bytes);
    streamer_.reset();
  }

  std::uint64_t heater_touch(Addr addr, std::size_t bytes) {
    if (bytes == 0) return 0;
    ReferenceSetAssocCache& llc = levels_.back();
    const Addr first = line_of(addr);
    const Addr last = line_of(addr + bytes - 1);
    std::uint64_t cold = 0;
    for (Addr line = first; line <= last; ++line) {
      const LineClass cls = !network_ranges_.empty() && is_network_line(line)
                                ? LineClass::kNetwork
                                : LineClass::kNormal;
      if (!llc.touch_fill(line, FillReason::kHeater, cls)) ++cold;
    }
    return cold;
  }

  void mark_network_region(Addr addr, std::size_t bytes) {
    SEMPERM_ASSERT(bytes > 0);
    network_ranges_.push_back(
        NetworkRange{line_of(addr), line_of(addr + bytes - 1)});
  }

  bool is_network_line(Addr line) const {
    for (const auto& r : network_ranges_)
      if (line >= r.first_line && line <= r.last_line) return true;
    return false;
  }

  const ReferenceSetAssocCache* network_cache() const {
    return netcache_.get();
  }
  unsigned level_count() const {
    return static_cast<unsigned>(levels_.size());
  }
  const ReferenceSetAssocCache& level(unsigned i) const {
    return levels_.at(i);
  }

  const HierarchyStats& stats() const {
    stats_.levels.clear();
    for (const auto& lvl : levels_) {
      const auto& st = lvl.stats();
      stats_.levels.push_back(LevelSummary{lvl.name(), st.demand_hits,
                                           st.demand_misses,
                                           st.prefetch_fills,
                                           st.prefetch_hits, st.writebacks});
    }
    if (netcache_) {
      const auto& st = netcache_->stats();
      stats_.levels.push_back(LevelSummary{
          netcache_->name(), st.demand_hits, st.demand_misses,
          st.prefetch_fills, st.prefetch_hits, st.writebacks});
    }
    return stats_;
  }

 private:
  void run_prefetchers(const AccessObservation& obs) {
    scratch_requests_.clear();
    const auto collect = [this](const PrefetchRequest& req) {
      scratch_requests_.push_back(req);
    };
    if (arch_.prefetch.l1_next_line) next_line_.observe(obs, collect);
    if (arch_.prefetch.l2_adjacent_pair) adjacent_pair_.observe(obs, collect);
    if (arch_.prefetch.l2_streamer) streamer_.observe(obs, collect);
    for (const auto& req : scratch_requests_) prefetch_fill(req);
  }

  void prefetch_fill(const PrefetchRequest& req) {
    const LineClass cls = !network_ranges_.empty() && is_network_line(req.line)
                              ? LineClass::kNetwork
                              : LineClass::kNormal;
    const unsigned target =
        std::min<unsigned>(req.target_level, level_count() - 1);
    if (levels_[target].contains(req.line)) return;
    levels_[target].fill_line(req.line, FillReason::kPrefetch, cls);
    if (target + 1 < level_count() && !levels_[target + 1].contains(req.line))
      levels_[target + 1].fill_line(req.line, FillReason::kPrefetch, cls);
  }

  struct NetworkRange {
    Addr first_line;
    Addr last_line;
  };

  ArchProfile arch_;
  std::vector<ReferenceSetAssocCache> levels_;
  std::vector<Cycles> level_latency_;
  std::unique_ptr<ReferenceSetAssocCache> netcache_;
  std::vector<NetworkRange> network_ranges_;
  NextLinePrefetcher next_line_;
  AdjacentPairPrefetcher adjacent_pair_;
  StreamPrefetcher streamer_;
  std::vector<PrefetchRequest> scratch_requests_;
  mutable HierarchyStats stats_;
};

}  // namespace semperm::cachesim::testing
