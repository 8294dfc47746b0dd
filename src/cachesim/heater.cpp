#include "cachesim/heater.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace semperm::cachesim {

namespace obs = semperm::obs;

SimHeater::SimHeater(Hierarchy& hierarchy, SimHeaterConfig config)
    : hier_(&hierarchy), config_(config) {
  SEMPERM_TRACE_ONLY(trace_track_ = obs::intern_track("SimHeater");)
  if (config_.capacity_bytes == 0) {
    const unsigned llc = hier_->level_count() - 1;
    capacity_ = hier_->level(llc).size_bytes() / 2;
  } else {
    capacity_ = config_.capacity_bytes;
  }
  touch_cycles_ = config_.touch_cycles_per_line;
  if (touch_cycles_ == 0) {
    const unsigned llc = hier_->level_count() - 1;
    touch_cycles_ =
        llc == 2 ? hier_->arch().l3.hit_latency : hier_->arch().l2.hit_latency;
  }
}

std::size_t HeaterRegistry::register_region(Addr addr, std::size_t bytes) {
  SEMPERM_ASSERT(bytes > 0);
  std::size_t slot = regions.size();
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
  } else {
    regions.emplace_back();
  }
  regions[slot] = Region{addr, bytes, /*live=*/true};
  ++live;
  registered_bytes += bytes;
  return slot;
}

void HeaterRegistry::unregister_region(std::size_t handle) {
  SEMPERM_ASSERT(handle < regions.size());
  SEMPERM_ASSERT_MSG(regions[handle].live, "double unregister");
  regions[handle].live = false;
  free_slots.push_back(handle);
  SEMPERM_ASSERT(live > 0);
  --live;
  SEMPERM_ASSERT(registered_bytes >= regions[handle].bytes);
  registered_bytes -= regions[handle].bytes;
}

std::size_t SimHeater::register_region(Addr addr, std::size_t bytes) {
  return registry_.register_region(addr, bytes);
}

void SimHeater::unregister_region(std::size_t handle) {
  registry_.unregister_region(handle);
}

Cycles SimHeater::pass_cycles() const {
  const std::size_t heated_bytes =
      std::min(registry_.registered_bytes, capacity_);
  const auto lines =
      static_cast<Cycles>((heated_bytes + kCacheLine - 1) / kCacheLine);
  const auto slots = static_cast<Cycles>(registry_.regions.size());
  return lines * touch_cycles_ + config_.scan_cost_per_region * slots;
}

double SimHeater::duty() const {
  const double period_cycles = config_.period_ns * hier_->arch().ghz;
  if (period_cycles <= 0.0) return 1.0;
  return std::min(1.0, static_cast<double>(pass_cycles()) / period_cycles);
}

double SimHeater::coverage() const {
  const auto pass = static_cast<double>(pass_cycles());
  if (pass <= 0.0) return 1.0;
  if (config_.race_with_pollution) {
    // Continuous pollution: everything the heater cannot revisit within
    // one period has already been displaced again when the consumer
    // arrives.
    const double period_cycles = config_.period_ns * hier_->arch().ghz;
    return std::max(0.0, 1.0 - pass / period_cycles);
  }
  // Phase-boundary refresh: the heater has the tail of the compute phase
  // to reload state.
  const double window_cycles = config_.refresh_window_ns * hier_->arch().ghz;
  return std::min(1.0, window_cycles / pass);
}

Cycles SimHeater::mutation_cost() {
  // Contended lock-line transfer, plus the mutation's own walk of the
  // registry, plus the expected wait on the heater's per-region lock hold
  // (probability = duty, mean residual = half of one region's hold time;
  // the registry uses fine-grained per-slot holds, not a whole-pass lock).
  const auto slots = static_cast<Cycles>(registry_.regions.size());
  const double per_region_hold =
      slots > 0 ? static_cast<double>(pass_cycles()) / static_cast<double>(slots)
                : 0.0;
  const double wait = duty() * per_region_hold * 0.5;
  return hier_->arch().lock_transfer +
         config_.scan_cost_per_region * slots + static_cast<Cycles>(wait);
}

std::uint64_t SimHeater::refresh() {
  // The pass runs on the (modeled) heater core, so it does not advance
  // the application thread's clock — the span's end timestamp is the
  // analytic pass duration instead.
  SEMPERM_TRACE_ONLY(
      const std::uint64_t pass_start = obs::trace_on() ? obs::sim_now() : 0;)
  SEMPERM_TRACE_SPAN_BEGIN(obs::Category::kHeater, "heater_pass", trace_track_,
                           registry_.registered_bytes);
  double budget = static_cast<double>(capacity_) * coverage();
  std::uint64_t fetched = 0;
  for (const HeaterRegistry::Region& r : registry_.regions) {
    if (!r.live) continue;
    if (budget <= 0.0) break;
    const std::size_t take =
        std::min(r.bytes, static_cast<std::size_t>(budget));
    if (take == 0) break;
    fetched += hier_->heater_touch(r.addr, take);
    budget -= static_cast<double>(take);
  }
  refreshed_lines_ += fetched;
  SEMPERM_TRACE_ONLY(
      if (obs::trace_on()) {
        SEMPERM_TRACE_SPAN_END_AT(obs::Category::kHeater, "heater_pass",
                                  trace_track_, fetched, coverage(),
                                  pass_start + pass_cycles());
        const unsigned llc = hier_->level_count() - 1;
        SEMPERM_TRACE_COUNTER(
            obs::Category::kHeater, "heated_lines_resident",
            obs::intern_track(hier_->level(llc).name()),
            static_cast<double>(hier_->level(llc).resident_lines_filled_by(
                FillReason::kHeater)));
      })
  return fetched;
}

}  // namespace semperm::cachesim
