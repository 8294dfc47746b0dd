// semperm/obs/session.hpp
//
// Trace session + per-thread event rings. A TraceSession owns one
// TraceSink per participating thread; sinks register lazily on a
// thread's first emit. Each sink is "lock-free-enough": its mutex is
// only ever contended when the session exports or clears, so the hot
// path is an uncontended lock (a single atomic RMW) plus a ring store.
//
// Overflow policy is drop-newest with exact accounting:
//   attempts == stored + sampled_out + dropped
// for every sink, always — tests assert this identity.
//
// Only compiled when SEMPERM_TRACE is on; bench_util and tests guard
// inclusion-free use through the macros in trace.hpp and
// `if constexpr (obs::kTraceEnabled)`.
#pragma once

#include "obs/trace.hpp"

#if SEMPERM_TRACE

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace semperm::obs {

struct TraceConfig {
  /// Max events retained per thread. Past this, new events are dropped
  /// (drop-newest) and counted. Storage grows lazily toward the cap.
  std::size_t ring_capacity = std::size_t{1} << 20;
  /// Keep every Nth instant/span event (counters are always kept, so
  /// occupancy tracks stay continuous under sampling). 1 = keep all.
  std::uint64_t sample_every = 1;
};

/// One thread's event buffer. Created and owned by TraceSession.
class TraceSink {
 public:
  explicit TraceSink(const TraceConfig& cfg, std::uint32_t tid)
      : cfg_(cfg), tid_(tid) {}

  void record(const TraceEvent& ev);

  std::uint32_t tid() const { return tid_; }
  std::uint64_t attempts() const {
    MutexLock lock(mu_);
    return attempts_;
  }
  std::uint64_t stored() const {
    MutexLock lock(mu_);
    return events_.size();
  }
  std::uint64_t sampled_out() const {
    MutexLock lock(mu_);
    return sampled_out_;
  }
  std::uint64_t dropped() const {
    MutexLock lock(mu_);
    return dropped_;
  }

 private:
  friend class TraceSession;

  TraceConfig cfg_;
  std::uint32_t tid_;
  mutable Mutex mu_;  // uncontended except during export/clear
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
  std::uint64_t attempts_ GUARDED_BY(mu_) = 0;
  std::uint64_t sampled_out_ GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
  std::string thread_name_ GUARDED_BY(mu_);
};

/// A recorded event paired with the thread it came from (export form).
struct MergedEvent {
  TraceEvent ev;
  std::uint32_t tid = 0;
};

struct SinkSummary {
  std::uint32_t tid = 0;
  std::string thread_name;
  std::uint64_t attempts = 0;
  std::uint64_t stored = 0;
  std::uint64_t sampled_out = 0;
  std::uint64_t dropped = 0;
};

/// Process-wide trace session. start()/stop() bracket a recording; the
/// snapshot survives stop() until clear() or the next start().
class TraceSession {
 public:
  static TraceSession& instance();

  /// Begin recording. Discards any previous snapshot and resets sinks.
  void start(const TraceConfig& cfg);
  /// Stop recording; events stay readable via snapshot()/summaries().
  void stop();
  bool recording() const { return trace_on(); }

  /// The sink for the calling thread, creating + registering it if the
  /// thread has not emitted before. Only valid while recording.
  TraceSink& this_thread_sink();

  void set_this_thread_name(std::string_view name);

  /// Merged view of all sinks, stably sorted by simulated cycle, then
  /// tid. Call after stop().
  std::vector<MergedEvent> snapshot();
  std::vector<SinkSummary> summaries();

  TraceConfig config() const {
    MutexLock lock(mu_);
    return cfg_;
  }
  std::uint64_t wall_origin_ns() const { return wall_origin_ns_; }

  /// Drop all sinks and interned state from the previous recording.
  void clear();

  /// Track-id interning (shared across sessions; ids are stable for
  /// the process lifetime so constructors can intern eagerly).
  std::uint16_t intern(std::string_view name);
  std::string track_name(std::uint16_t id);
  std::vector<std::string> track_table();

 private:
  TraceSession() = default;

  mutable Mutex mu_;  // guards sinks_, tracks_, cfg_ swaps
  std::deque<std::unique_ptr<TraceSink>> sinks_ GUARDED_BY(mu_);
  std::vector<std::string> tracks_ GUARDED_BY(mu_);
  TraceConfig cfg_ GUARDED_BY(mu_);
  std::uint64_t wall_origin_ns_ = 0;  // written in start(), read racily
  std::uint32_t next_tid_ GUARDED_BY(mu_) = 0;
  // Bumped on start()/clear() to invalidate per-thread cached sink
  // pointers. Atomic: lazily-registering threads read it unlocked.
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace semperm::obs

#endif  // SEMPERM_TRACE
