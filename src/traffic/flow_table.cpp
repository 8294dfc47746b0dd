#include "traffic/flow_table.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "resilience/admission.hpp"

namespace semperm::traffic {

FlowTableConfig auto_geometry(std::uint64_t flows, unsigned ways) {
  FlowTableConfig cfg;
  cfg.ways = ways;
  std::size_t slots = std::size_t{1} << 12;
  while (slots < flows / 8 && slots < (std::size_t{1} << 22)) slots <<= 1;
  cfg.slots = std::max<std::size_t>(slots, ways);
  return cfg;
}

FlowTable::FlowTable(FlowTableConfig cfg)
    : cfg_(cfg),
      sets_(cfg.slots / cfg.ways),
      slots_(cfg.slots),
      hits_metric_(obs::MetricsRegistry::global().counter("traffic.flow_cache.hits")),
      misses_metric_(
          obs::MetricsRegistry::global().counter("traffic.flow_cache.misses")),
      evictions_metric_(obs::MetricsRegistry::global().counter(
          "traffic.flow_cache.evictions")) {
  SEMPERM_ASSERT_MSG(cfg.ways > 0 && cfg.slots > 0 &&
                         cfg.slots % cfg.ways == 0,
                     "flow table slots must be a multiple of ways");
}

void FlowTable::attach_sim(memlayout::AddressSpace& space) {
  SEMPERM_ASSERT_MSG(!sim_attached_, "attach_sim is once-only");
  const Addr base = space.reserve(storage_bytes());
  sim_first_line_ = line_of(base);
  sim_attached_ = true;
}

bool FlowTable::steer(std::uint64_t flow_id, std::vector<Addr>* lines_out) {
  ++stats_.lookups;
  ++stamp_;
  const std::uint64_t h = flow_hash(flow_key(flow_id, cfg_.salt));
  if (admission_ != nullptr) admission_->record(h);
  const std::size_t set = static_cast<std::size_t>(h % sets_);
  FlowSlot* row = &slots_[set * cfg_.ways];
  const Addr row_line = sim_first_line_ + static_cast<Addr>(set) * cfg_.ways;
  const bool record = lines_out != nullptr && sim_attached_;

  // The victim is the first way with the oldest stamp: an empty way (0)
  // if there is one, else the set's LRU (live stamps are distinct).
  unsigned victim = 0;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (record)  // semperm-analyze: allow(hotpath-alloc) -- lines_out is the sim-charging side channel; run_steering passes its chunk, reserved to chunk_lines + ways + 1, so push_back never reallocates
      lines_out->push_back(row_line + w);
    FlowSlot& s = row[w];
    if (s.last_use != 0 && s.flow_id == flow_id) {
      s.last_use = stamp_;
      ++stats_.hits;
      hits_metric_.add(1);
      return true;
    }
    if (s.last_use < row[victim].last_use) victim = w;
  }

  ++stats_.misses;
  misses_metric_.add(1);
  FlowSlot& v = row[victim];
  if (v.last_use != 0) {
    // A live victim is only displaced when the admission filter (if any)
    // ranks the candidate at least as hot — one-hit wonders cannot churn
    // the semi-permanently resident tail (DESIGN.md §17.1). Empty slots
    // never consult the filter.
    if (admission_ != nullptr &&
        !admission_->admit(h, flow_hash(flow_key(v.flow_id, cfg_.salt)))) {
      ++stats_.admission_rejects;
      return false;
    }
    ++stats_.evictions;
    evictions_metric_.add(1);
  } else {
    ++live_;
  }
  v.flow_id = flow_id;
  v.last_use = stamp_;
  ++stats_.insertions;
  if (record)  // semperm-analyze: allow(hotpath-alloc) -- same sim-only side channel as the probe loop above
    lines_out->push_back(row_line + victim);  // install write
  return false;
}

bool FlowTable::probe(std::uint64_t flow_id, std::vector<Addr>* lines_out) {
  ++stats_.probe_lookups;
  const std::uint64_t h = flow_hash(flow_key(flow_id, cfg_.salt));
  if (admission_ != nullptr) admission_->record(h);
  const std::size_t set = static_cast<std::size_t>(h % sets_);
  FlowSlot* row = &slots_[set * cfg_.ways];
  const Addr row_line = sim_first_line_ + static_cast<Addr>(set) * cfg_.ways;
  const bool record = lines_out != nullptr && sim_attached_;
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (record)  // semperm-analyze: allow(hotpath-alloc) -- same sim-only side channel as steer()
      lines_out->push_back(row_line + w);
    FlowSlot& s = row[w];
    if (s.last_use != 0 && s.flow_id == flow_id) {
      s.last_use = ++stamp_;
      ++stats_.probe_hits;
      hits_metric_.add(1);
      return true;
    }
  }
  return false;
}

}  // namespace semperm::traffic
