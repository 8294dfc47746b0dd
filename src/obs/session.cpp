#include "obs/session.hpp"

namespace semperm::obs {

const char* category_name(Category cat) {
  switch (cat) {
    case Category::kCache:
      return "cache";
    case Category::kCoherence:
      return "coherence";
    case Category::kMatch:
      return "match";
    case Category::kHeater:
      return "heater";
    case Category::kMpi:
      return "mpi";
    case Category::kApp:
      return "app";
    case Category::kTraffic:
      return "traffic";
    case Category::kResilience:
      return "resilience";
  }
  return "?";
}

}  // namespace semperm::obs

#if SEMPERM_TRACE

#include <algorithm>
#include <chrono>

namespace semperm::obs {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ThreadSinkCache {
  TraceSink* sink = nullptr;
  std::uint64_t epoch = 0;
};

ThreadSinkCache& tls_cache() {
  thread_local ThreadSinkCache cache;
  return cache;
}

}  // namespace

void TraceSink::record(const TraceEvent& ev) {
  MutexLock lock(mu_);
  ++attempts_;
  // Counters are exempt from sampling so occupancy tracks stay dense.
  // Resilience events (admission rejects, shed edges, ladder moves) are
  // rare and each one marks a policy decision — sampling them out would
  // leave trace_summarize.py unable to reconstruct the degradation
  // story, so they are always kept too.
  if (cfg_.sample_every > 1 && ev.kind != EventKind::kCounter &&
      ev.cat != Category::kResilience &&
      attempts_ % cfg_.sample_every != 1) {
    ++sampled_out_;
    return;
  }
  if (events_.size() >= cfg_.ring_capacity) {
    ++dropped_;
    return;
  }
  events_.push_back(ev);
}

TraceSession& TraceSession::instance() {
  static TraceSession session;
  return session;
}

void TraceSession::start(const TraceConfig& cfg) {
  MutexLock lock(mu_);
  sinks_.clear();
  next_tid_ = 0;
  cfg_ = cfg;
  if (cfg_.ring_capacity == 0) cfg_.ring_capacity = 1;
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
  wall_origin_ns_ = wall_now_ns();
  ++epoch_;
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceSession::stop() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
}

TraceSink& TraceSession::this_thread_sink() {
  auto& cache = tls_cache();
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (cache.sink == nullptr || cache.epoch != epoch) {
    MutexLock lock(mu_);
    sinks_.push_back(std::make_unique<TraceSink>(cfg_, next_tid_++));
    cache.sink = sinks_.back().get();
    cache.epoch = epoch;
  }
  return *cache.sink;
}

void TraceSession::set_this_thread_name(std::string_view name) {
  TraceSink& sink = this_thread_sink();
  MutexLock lock(sink.mu_);
  sink.thread_name_.assign(name);
}

std::vector<MergedEvent> TraceSession::snapshot() {
  std::vector<MergedEvent> merged;
  MutexLock lock(mu_);
  for (auto& sink : sinks_) {
    MutexLock sink_lock(sink->mu_);
    merged.reserve(merged.size() + sink->events_.size());
    for (const TraceEvent& ev : sink->events_)
      merged.push_back(MergedEvent{ev, sink->tid()});
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     if (a.ev.sim != b.ev.sim) return a.ev.sim < b.ev.sim;
                     return a.tid < b.tid;
                   });
  return merged;
}

std::vector<SinkSummary> TraceSession::summaries() {
  std::vector<SinkSummary> out;
  MutexLock lock(mu_);
  out.reserve(sinks_.size());
  for (auto& sink : sinks_) {
    MutexLock sink_lock(sink->mu_);
    out.push_back(SinkSummary{sink->tid(), sink->thread_name_,
                              sink->attempts_, sink->events_.size(),
                              sink->sampled_out_, sink->dropped_});
  }
  return out;
}

void TraceSession::clear() {
  stop();
  MutexLock lock(mu_);
  sinks_.clear();
  next_tid_ = 0;
  ++epoch_;
}

std::uint16_t TraceSession::intern(std::string_view name) {
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < tracks_.size(); ++i)
    if (tracks_[i] == name) return static_cast<std::uint16_t>(i + 1);
  if (tracks_.size() >= 0xFFFE) return 0;  // interning table full
  tracks_.emplace_back(name);
  return static_cast<std::uint16_t>(tracks_.size());
}

std::string TraceSession::track_name(std::uint16_t id) {
  MutexLock lock(mu_);
  if (id == 0 || id > tracks_.size()) return "";
  return tracks_[id - 1];
}

std::vector<std::string> TraceSession::track_table() {
  MutexLock lock(mu_);
  return tracks_;
}

void emit_event(EventKind kind, Category cat, const char* name,
                std::uint16_t track, std::uint64_t arg, double value,
                std::uint64_t sim_override) {
  TraceSession& session = TraceSession::instance();
  TraceEvent ev;
  ev.sim = sim_override == kStampNow ? sim_now() : sim_override;
  ev.wall_ns = wall_now_ns() - session.wall_origin_ns();
  ev.arg = arg;
  ev.value = value;
  ev.name = name;
  ev.track = track;
  ev.kind = kind;
  ev.cat = cat;
  session.this_thread_sink().record(ev);
}

std::uint16_t intern_track(std::string_view name) {
  return TraceSession::instance().intern(name);
}

void set_thread_name(std::string_view name) {
  TraceSession::instance().set_this_thread_name(name);
}

}  // namespace semperm::obs

#endif  // SEMPERM_TRACE
