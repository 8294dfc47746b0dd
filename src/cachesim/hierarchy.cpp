#include "cachesim/hierarchy.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/assert.hpp"

namespace semperm::cachesim {

Hierarchy::Hierarchy(const ArchProfile& arch)
    : arch_(arch),
      streamer_(arch.prefetch.stream_trigger, arch.prefetch.stream_degree),
      streamer_before_(streamer_) {
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
    netcache_ = std::make_unique<SetAssocCache>(
        "NetC", arch_.network_cache.size_bytes, arch_.network_cache.assoc);
  }
  if (arch_.llc_reserved_ways > 0)
    levels_.back().set_partition(arch_.llc_reserved_ways);
}

void Hierarchy::mark_network_region(Addr addr, std::size_t bytes) {
  SEMPERM_ASSERT(bytes > 0);
  ++ops_;
  network_ranges_.push_back(
      NetworkRange{line_of(addr), line_of(addr + bytes - 1)});
}

bool Hierarchy::is_network_line(Addr line) const {
  for (const auto& r : network_ranges_)
    if (line >= r.first_line && line <= r.last_line) return true;
  return false;
}

bool Hierarchy::network_resident(Addr addr) const {
  return netcache_ != nullptr && netcache_->contains(line_of(addr));
}

Cycles Hierarchy::access(Addr addr, std::size_t bytes, bool write) {
  SEMPERM_ASSERT(bytes > 0);
  Cycles total = 0;
  const Addr first = line_of(addr);
  const Addr last = line_of(addr + bytes - 1);
  for (Addr line = first; line <= last; ++line) total += access_line(line, write);
  ++stats_.accesses;
  return total;
}

Cycles Hierarchy::access(std::span<const DemandAccess> batch) {
  const bool repeat = clean_batch_.valid && clean_batch_.ops == ops_ &&
                      clean_batch_.lines_touched == stats_.lines_touched &&
                      std::ranges::equal(batch, clean_batch_.accesses);
  if (!repeat) return simulate_batch(batch);
  ++replayed_batches_;
#if SEMPERM_AUDIT
  // Audited builds simulate the repeat anyway: it must be clean again and
  // charge exactly what the record says.
  const BatchCharge want = clean_batch_.charge;
  const Cycles cycles = simulate_batch(batch);
  SEMPERM_AUDIT_CHECK(clean_batch_.valid && clean_batch_.charge == want,
                      arch_.name << " replayed batch of " << batch.size()
                                 << " accesses differs from its record");
  return cycles;
#else
  // The repeat of a clean batch finds what it found: the same L1 and
  // network-cache hits, the same no-op prefetches, and the LRU order its
  // record left, which it leaves again.
  const BatchCharge& c = clean_batch_.charge;
  levels_[0].count_replayed_hits(c.l1_hits);
  if (netcache_) netcache_->count_replayed_hits(c.net_hits);
  stats_.lines_touched += c.lines;
  stats_.accesses += batch.size();
  stats_.total_cycles += c.cycles;
  SEMPERM_TRACE_CLOCK_ADVANCE(c.cycles);
  clean_batch_.lines_touched = stats_.lines_touched;
  return c.cycles;
#endif
}

Cycles Hierarchy::simulate_batch(std::span<const DemandAccess> batch) {
  clean_batch_.valid = false;
  std::array<CacheStats, kMaxLevels> before{};
  for (unsigned i = 0; i < level_count(); ++i) before[i] = levels_[i].stats();
  const CacheStats net_before = netcache_ ? netcache_->stats() : CacheStats{};
  const std::uint64_t dram_before = stats_.dram_fetches;
  const std::uint64_t lines_before = stats_.lines_touched;
  streamer_before_ = streamer_;

  Cycles total = 0;
  for (const DemandAccess& a : batch) total += access(a.addr, a.bytes, a.write);

  // Clean: no store, every line hit in L1 or the network cache, and every
  // prefetch request found its line resident. Then only demand hits
  // moved, and only there; nothing was filled, evicted, re-marked or
  // dirtied; and the streamer is back where it started.
  const auto only_hits_moved = [](CacheStats now, const CacheStats& then) {
    now.demand_hits = then.demand_hits;
    return now == then;
  };
  bool clean = std::ranges::none_of(batch, &DemandAccess::write) &&
               stats_.dram_fetches == dram_before &&
               only_hits_moved(levels_[0].stats(), before[0]) &&
               streamer_ == streamer_before_;
  for (unsigned i = 1; clean && i < level_count(); ++i)
    clean = levels_[i].stats() == before[i];
  if (netcache_ && clean)
    clean = only_hits_moved(netcache_->stats(), net_before);
  if (!clean) return total;

  clean_batch_.accesses.assign(batch.begin(), batch.end());
  clean_batch_.charge = BatchCharge{
      total, levels_[0].stats().demand_hits - before[0].demand_hits,
      netcache_ ? netcache_->stats().demand_hits - net_before.demand_hits : 0,
      stats_.lines_touched - lines_before};
  clean_batch_.lines_touched = stats_.lines_touched;
  clean_batch_.ops = ops_;
  clean_batch_.valid = true;
  return total;
}

Cycles Hierarchy::simulate(std::span<const Addr> lines, bool write) {
  Cycles total = 0;
  for (const Addr line : lines) total += access_line(line, write);
  stats_.accesses += lines.size();
  return total;
}

Cycles Hierarchy::access_line(Addr line, bool write) {
  // Write-allocate, write-back: stores have identical timing to loads; the
  // dirty bit records the deferred writeback charged on displacement.
  ++stats_.lines_touched;

  const bool network = !network_ranges_.empty() && is_network_line(line);
  const LineClass cls = network ? LineClass::kNetwork : LineClass::kNormal;

  // Each probe that misses reports the set it walked: the demand fill of
  // that level inserts there without walking again. Until the fills, the
  // only change to a missed level is mark_dirty of another line.
  std::size_t net_set = 0;
  std::array<std::size_t, kMaxLevels> missed_set{};

  // Network lines are served by the dedicated network cache when one is
  // configured — it sits beside the L1 and ordinary traffic never touches
  // it (the paper's posited "network specific cache").
  if (network && netcache_ != nullptr && netcache_->access(line, net_set)) {
    if (write) netcache_->mark_dirty(line);
    stats_.total_cycles += arch_.network_cache.hit_latency;
    SEMPERM_TRACE_CLOCK_ADVANCE(arch_.network_cache.hit_latency);
    return arch_.network_cache.hit_latency;
  }

  AccessObservation obs{line, /*l1_hit=*/false, /*l2_hit=*/false};
  Cycles cost = 0;
  unsigned serving_level = level_count();  // == level_count() means DRAM
  const unsigned first_level = (network && netcache_ != nullptr) ? 1u : 0u;
  for (unsigned lvl = first_level; lvl < level_count(); ++lvl) {
    if (levels_[lvl].access(line, missed_set[lvl])) {
      serving_level = lvl;
      cost = level_latency_[lvl];
      break;
    }
  }
  if (serving_level == level_count()) {
    cost = arch_.dram_latency;
    ++stats_.dram_fetches;
    SEMPERM_TRACE_INSTANT(semperm::obs::Category::kCache, "dram_fetch", 0,
                          line, 0.0);
  }
  obs.l1_hit = (serving_level == 0);
  obs.l2_hit = (serving_level == 1);

  // Fill every level closer to the core than the serving level; network
  // lines fill the dedicated cache instead of the L1. Dirty victims are
  // written back into the next level out (NINE: accepted only if already
  // resident there; otherwise the writeback drains to DRAM).
  for (unsigned lvl = first_level; lvl < serving_level && lvl < level_count();
       ++lvl) {
    const auto evicted = levels_[lvl].fill_missed(missed_set[lvl], line,
                                                  FillReason::kDemand, cls);
    if (evicted && evicted->dirty && lvl + 1 < level_count())
      levels_[lvl + 1].mark_dirty(evicted->line);
  }
  if (network && netcache_ != nullptr)
    netcache_->fill_missed(net_set, line, FillReason::kDemand,
                           LineClass::kNetwork, write);

  if (write) {
    // Mark dirty at the level closest to the core now holding the line.
    if (!(network && netcache_ != nullptr)) {
      if (first_level < level_count()) levels_[first_level].mark_dirty(line);
    }
  }

  run_prefetchers(obs);
  stats_.total_cycles += cost;
  // The access paths are where simulated time passes: keep the tracing
  // clock in step with the cycle accounting.
  SEMPERM_TRACE_CLOCK_ADVANCE(cost);
  SEMPERM_AUDIT_CHECK(stats_.dram_fetches <= stats_.lines_touched,
                      arch_.name << " DRAM fetches exceed line accesses");
  SEMPERM_AUDIT_CHECK(stats_.accesses <= stats_.lines_touched,
                      arch_.name << " byte accesses exceed line accesses");
  return cost;
}

void Hierarchy::run_prefetchers(const AccessObservation& obs) {
  // Each request fills as its unit emits it (prefetch.hpp).
  const auto fill = [this](const PrefetchRequest& req) { prefetch_fill(req); };
  if (arch_.prefetch.l1_next_line) next_line_.observe(obs, fill);
  if (arch_.prefetch.l2_adjacent_pair) adjacent_pair_.observe(obs, fill);
  if (arch_.prefetch.l2_streamer) streamer_.observe(obs, fill);
}

void Hierarchy::prefetch_fill(const PrefetchRequest& req) {
  const LineClass cls = !network_ranges_.empty() && is_network_line(req.line)
                            ? LineClass::kNetwork
                            : LineClass::kNormal;
  const unsigned target = std::min<unsigned>(req.target_level, level_count() - 1);
  // fill_line_if_absent fuses the old `contains() ? skip : fill()` pair
  // into one set walk per level; resident lines are left strictly alone
  // (no LRU refresh), exactly as the unfused guard behaved.
  if (!levels_[target].fill_line_if_absent(req.line, FillReason::kPrefetch, cls)
           .filled)
    return;
  // L2 prefetches also land in the LLC (the fill passes through it).
  if (target + 1 < level_count())
    levels_[target + 1].fill_line_if_absent(req.line, FillReason::kPrefetch,
                                            cls);
}

void Hierarchy::flush_all() {
  ++ops_;
  for (auto& lvl : levels_) lvl.flush();
  if (netcache_) netcache_->flush();
  streamer_.reset();
}

void Hierarchy::pollute(std::size_t bytes) {
  // The dedicated network cache is untouched by construction: ordinary
  // traffic cannot allocate into it.
  ++ops_;
  for (unsigned i = 0; i + 1 < level_count(); ++i) levels_[i].flush();
  levels_.back().pollute(bytes);
  streamer_.reset();
}

std::uint64_t Hierarchy::heater_touch(Addr addr, std::size_t bytes) {
  ++ops_;
  if (bytes == 0) return 0;
  SetAssocCache& llc = levels_.back();
  const Addr first = line_of(addr);
  const Addr last = line_of(addr + bytes - 1);
  std::uint64_t cold = 0;
  for (Addr line = first; line <= last; ++line) {
    const LineClass cls = !network_ranges_.empty() && is_network_line(line)
                              ? LineClass::kNetwork
                              : LineClass::kNormal;
    // Fused probe+fill: one set walk per heated line.
    if (!llc.touch_fill(line, FillReason::kHeater, cls)) ++cold;
  }
  return cold;
}

bool Hierarchy::resident(unsigned level, Addr addr) const {
  SEMPERM_ASSERT(level < level_count());
  return levels_[level].contains(line_of(addr));
}

void Hierarchy::reset_stats() {
  ++ops_;  // lines_touched restarts at 0 and could reach the record again
  stats_ = HierarchyStats{};
  for (auto& lvl : levels_) lvl.reset_stats();
  if (netcache_) netcache_->reset_stats();
}

void Hierarchy::audit() const {
  for (const auto& lvl : levels_) lvl.audit();
  if (netcache_) netcache_->audit();
  SEMPERM_AUDIT_CHECK(stats_.dram_fetches <= stats_.lines_touched,
                      arch_.name << " DRAM fetches exceed line accesses");
  SEMPERM_AUDIT_CHECK(stats_.accesses <= stats_.lines_touched,
                      arch_.name << " byte accesses exceed line accesses");
}

const HierarchyStats& Hierarchy::stats() const {
  stats_.levels.clear();
  for (const auto& lvl : levels_) {
    const auto& st = lvl.stats();
    stats_.levels.push_back(LevelSummary{lvl.name(), st.demand_hits,
                                         st.demand_misses, st.prefetch_fills,
                                         st.prefetch_hits, st.writebacks});
  }
  if (netcache_) {
    const auto& st = netcache_->stats();
    stats_.levels.push_back(LevelSummary{netcache_->name(), st.demand_hits,
                                         st.demand_misses, st.prefetch_fills,
                                         st.prefetch_hits, st.writebacks});
  }
  return stats_;
}

std::string Hierarchy::report() const {
  std::ostringstream os;
  os << arch_.name << " hierarchy: " << stats_.lines_touched
     << " line accesses, " << stats_.dram_fetches << " DRAM fetches, "
     << stats_.total_cycles << " cycles\n";
  for (unsigned i = 0; i < level_count(); ++i) {
    const auto& st = levels_[i].stats();
    os << "  " << levels_[i].name() << ": hits " << st.demand_hits
       << ", misses " << st.demand_misses << ", hit-rate "
       << static_cast<int>(st.hit_rate() * 100.0) << "%, prefetch fills "
       << st.prefetch_fills << " (used " << st.prefetch_hits
       << "), heater fills " << st.heater_fills << " (used " << st.heater_hits
       << ")\n";
  }
  if (netcache_) {
    const auto& st = netcache_->stats();
    os << "  NetC: hits " << st.demand_hits << ", misses " << st.demand_misses
       << ", hit-rate " << static_cast<int>(st.hit_rate() * 100.0) << "%\n";
  }
  return os.str();
}

}  // namespace semperm::cachesim
