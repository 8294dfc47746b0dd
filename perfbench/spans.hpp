// perfbench/spans.hpp
//
// Host-time spans for the traced re-drive. A Tracer keeps a stack of open
// spans timed with the TSC; closing a span charges its duration to its
// name and to its parent's child time, so every span's self time is its
// duration minus its children. One Tracer covers one entry-point call:
// its root span is the whole call, and the root's self time is the
// driver's own work outside every layer span.
//
// Per-name aggregates are exact; the raw log (name, parent, start, end)
// keeps the first `raw_cap` spans of the call so the file written at the
// end of a run stays bounded on 10^5-packet segments.
#pragma once

#include <x86intrin.h>

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Every span name the re-drives open. Names are the per-layer metric
/// prefixes of the benchmark doc.
#define PERFBENCH_SPANS(X)                        \
  X(kRoot, "driver")                              \
  X(kHierSetup, "cachesim.setup")                 \
  X(kPollute, "cachesim.pollute")                 \
  X(kFlushAll, "cachesim.flush_all")              \
  X(kSimulate, "cachesim.simulate")               \
  X(kHeaterSetup, "cachesim.heater_setup")        \
  X(kHeaterRefresh, "cachesim.heater_refresh")    \
  X(kHeaterRegister, "cachesim.heater_register")  \
  X(kMatchSetup, "match.setup")                   \
  X(kPostRecv, "match.post_recv")                 \
  X(kIncoming, "match.incoming")                  \
  X(kProbe, "match.probe")                        \
  X(kCohSetup, "coherence.setup")                 \
  X(kAccessRead, "coherence.access_line_read")    \
  X(kAccessWrite, "coherence.access_line_write")  \
  X(kCohFlushAll, "coherence.flush_all")          \
  X(kAnalyze, "motifs.analyze_decomposition")     \
  X(kGenSetup, "traffic.setup.gen")               \
  X(kTableSetup, "traffic.setup.table")           \
  X(kGenNext, "traffic.gen_next")                 \
  X(kSteer, "traffic.steer")                      \
  X(kTableProbe, "traffic.table_probe")           \
  X(kResSetup, "resilience.setup")                \
  X(kCheckOnce, "resilience.check_once")          \
  X(kValveUpdate, "resilience.valve_update")

enum SpanId : std::uint16_t {
#define PERFBENCH_SPAN_ENUM(id, name) id,
  PERFBENCH_SPANS(PERFBENCH_SPAN_ENUM)
#undef PERFBENCH_SPAN_ENUM
      kSpanCount
};

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
#define PERFBENCH_SPAN_NAME(id, name) name,
    PERFBENCH_SPANS(PERFBENCH_SPAN_NAME)
#undef PERFBENCH_SPAN_NAME
};

inline std::uint64_t now_ticks() { return __rdtsc(); }

/// TSC ticks per nanosecond, calibrated against steady_clock once per
/// process (the host advertises constant_tsc / nonstop_tsc).
double ticks_per_ns();

struct SpanStat {
  std::uint64_t calls = 0;
  std::uint64_t total_ticks = 0;
  std::uint64_t self_ticks = 0;
};

struct RawSpan {
  std::uint16_t id;
  std::uint16_t parent;
  std::uint64_t start;
  std::uint64_t end;
};

class Tracer {
 public:
  explicit Tracer(std::size_t raw_cap = 1 << 12) : raw_cap_(raw_cap) {
    stack_.reserve(16);
    raw_.reserve(raw_cap_);
  }

  void begin(SpanId id) {
    const std::uint64_t t = now_ticks();
    if (stack_.empty()) origin_ = t;
    stack_.push_back(Open{id, t, 0});
  }

  /// The simulated machine and inputs are built; the run starts here.
  void mark_setup_done() { setup_end_ = now_ticks(); }
  std::uint64_t setup_ticks() const { return setup_end_ - origin_; }

  void end() {
    const std::uint64_t t = now_ticks();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = t - o.start;
    SpanStat& s = stats_[o.id];
    ++s.calls;
    s.total_ticks += dur;
    s.self_ticks += dur - o.child_ticks;
    std::uint16_t parent = kRoot;
    if (!stack_.empty()) {
      stack_.back().child_ticks += dur;
      parent = stack_.back().id;
    }
    if (raw_.size() < raw_cap_) raw_.push_back(RawSpan{o.id, parent, o.start, t});
  }

  /// Time one layer call: `tr.time(kSteer, [&] { return table.steer(...); })`.
  template <class F>
  decltype(auto) time(SpanId id, F&& f) {
    struct Close {
      Tracer* t;
      ~Close() { t->end(); }
    } close{this};
    begin(id);
    return f();
  }

  bool balanced() const { return stack_.empty(); }
  const std::array<SpanStat, kSpanCount>& stats() const { return stats_; }
  const std::vector<RawSpan>& raw() const { return raw_; }

 private:
  struct Open {
    SpanId id;
    std::uint64_t start;
    std::uint64_t child_ticks;
  };
  std::vector<Open> stack_;
  std::array<SpanStat, kSpanCount> stats_{};
  std::vector<RawSpan> raw_;
  std::size_t raw_cap_;
  std::uint64_t origin_ = 0;
  std::uint64_t setup_end_ = 0;
};

}  // namespace perfbench
