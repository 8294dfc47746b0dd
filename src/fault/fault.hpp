// semperm/fault/fault.hpp
//
// The deterministic fault-injection plane (DESIGN.md §12).
//
// The paper's matching results assume a perfectly reliable wire and an
// always-on heater; both assumptions are exactly what a production
// network runtime cannot make. This layer injects the failure modes a
// real interconnect and a starved heater thread exhibit — message drop,
// duplication, reordering, delay spikes, heater stalls — from a single
// 64-bit seed, so every chaos run is reproducible from its report.
//
// Determinism model: an injection decision is a *pure function* of
// (seed, site, src, dst, seq, attempt), computed by hashing the tuple
// through splitmix64 and comparing against the site's probability. No
// injector state feeds back into decisions, so retransmissions,
// thread interleavings, and replay order cannot perturb the fault
// pattern: the n-th transmission attempt of frame `seq` on a pair
// either always faults or never does, for a given plan.
//
// Schedules beyond the Bernoulli rate:
//  * one_shot_seq — fault exactly this sequence number (first attempt),
//    for targeted regression tests;
//  * burst_start/burst_len — fault every first-attempt frame whose seq
//    falls in [burst_start, burst_start+burst_len), modelling a link
//    brown-out.
//
// The plan is the only switch, in every build type: a site injects only
// under a plan whose matching site is active (DESIGN.md §12 lists the
// sites).
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace semperm::fault {

/// Where a fault can be injected.
enum class FaultSite : std::uint8_t {
  kNetDrop = 0,    // transmission lost on the wire
  kNetDuplicate,   // transmission delivered twice
  kNetReorder,     // frame held back past the next frame on its pair
  kNetDelay,       // frame held back for a wall-clock spike
  kHeaterStall,    // heater pass preempted / starved
  kSiteCount,
};

inline constexpr std::size_t kSiteCount =
    static_cast<std::size_t>(FaultSite::kSiteCount);

const char* site_name(FaultSite site);

/// Per-site schedule: Bernoulli rate plus optional targeted shots.
struct SiteSpec {
  double probability = 0.0;  // per-attempt Bernoulli rate in [0, 1)
  /// Fault exactly this seq on its first attempt. 0 = disabled (seqs
  /// are 1-based on the wire).
  std::uint64_t one_shot_seq = 0;
  /// Fault every first-attempt seq in [burst_start, burst_start+burst_len).
  std::uint64_t burst_start = 0;
  std::uint64_t burst_len = 0;

  bool active() const {
    return probability > 0.0 || one_shot_seq != 0 || burst_len != 0;
  }
};

/// A complete seeded scenario. Value type: copy it freely.
struct FaultPlan {
  std::uint64_t seed = 0x5eedfa017ULL;
  std::array<SiteSpec, kSiteCount> sites{};
  /// After this many transmission attempts of one frame, the injector
  /// stops dropping it (livelock guard; other sites still roll).
  std::uint32_t max_drop_attempts = 16;
  /// Wall-clock length of an injected delay spike.
  std::uint64_t delay_spike_ns = 1'000'000;

  SiteSpec& site(FaultSite s) { return sites[static_cast<std::size_t>(s)]; }
  const SiteSpec& site(FaultSite s) const {
    return sites[static_cast<std::size_t>(s)];
  }

  bool any_active() const {
    for (const auto& s : sites)
      if (s.active()) return true;
    return false;
  }
  bool network_active() const;

  /// Parse "drop=0.05,dup=0.01,reorder=0.02,delay=0.01,stall=0.1,
  /// seed=1234" (any subset; also "drop@7" one-shot and
  /// "drop@100+16" burst forms). Throws std::invalid_argument on
  /// malformed specs.
  static FaultPlan parse(const std::string& spec);
  std::string to_string() const;
};

/// What the injector tells a transmission site to do with one frame.
struct FaultDecision {
  bool drop = false;       // do not deliver this attempt
  bool duplicate = false;  // deliver one extra copy
  bool reorder = false;    // hold until the pair's next transmission
  std::uint64_t delay_ns = 0;  // hold for this long (0 = no delay)
};

/// Injection counts, per injector. Plain counters: every injector is
/// owned by a single thread (one per rank / one per heater).
struct FaultStats {
  std::uint64_t rolls = 0;
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t delays = 0;
  std::uint64_t heater_stalls = 0;
  std::uint64_t forced_deliveries = 0;  // drop suppressed by attempt cap

  void merge(const FaultStats& o) {
    rolls += o.rolls;
    drops += o.drops;
    duplicates += o.duplicates;
    reorders += o.reorders;
    delays += o.delays;
    heater_stalls += o.heater_stalls;
    forced_deliveries += o.forced_deliveries;
  }
};

/// Transport-layer accounting of the simmpi reliability sublayer
/// (DESIGN.md §12 conservation identity):
///
///   frames_sent + retransmissions + dup_copies
///     == wire_drops + dup_suppressed + delivered        (at quiesce)
///
/// Every transmission put on the wire is eventually exactly one of
/// dropped-by-injector, suppressed-as-duplicate, or delivered in order
/// to the protocol layer; and delivered == frames_sent once the
/// runtime has quiesced (no parked or held frames remain).
struct WireStats {
  std::uint64_t frames_sent = 0;      // unique sequenced frames
  std::uint64_t retransmissions = 0;  // extra attempts of unique frames
  std::uint64_t dup_copies = 0;       // injector-made extra copies
  std::uint64_t wire_drops = 0;       // transmissions dropped by injector
  std::uint64_t delivered = 0;        // in-order handoffs to the protocol
  std::uint64_t dup_suppressed = 0;   // receiver-side duplicate discards
  std::uint64_t parked = 0;           // out-of-order frames buffered
  std::uint64_t acks_sent = 0;
  std::uint64_t ack_drops = 0;        // acks lost to the injector
  std::uint64_t forced_deliveries = 0;

  void merge(const WireStats& o) {
    frames_sent += o.frames_sent;
    retransmissions += o.retransmissions;
    dup_copies += o.dup_copies;
    wire_drops += o.wire_drops;
    delivered += o.delivered;
    dup_suppressed += o.dup_suppressed;
    parked += o.parked;
    acks_sent += o.acks_sent;
    ack_drops += o.ack_drops;
    forced_deliveries += o.forced_deliveries;
  }

  /// Left and right sides of the conservation identity. Acks are
  /// unsequenced fire-and-forget frames and sit outside it.
  std::uint64_t transmissions() const {
    return frames_sent + retransmissions + dup_copies;
  }
  std::uint64_t accounted() const {
    return wire_drops + dup_suppressed + delivered;
  }
  bool conserved() const { return transmissions() == accounted(); }
};

/// Stateless decision engine over one plan. Thread-compatible: decide()
/// mutates only the owner's counters, so give each rank (and the
/// heater) its own injector over the same plan.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  /// Decide the fate of transmission `attempt` (0-based) of frame `seq`
  /// on the pair src->dst. Pure in (plan.seed, src, dst, seq, attempt).
  FaultDecision decide(int src, int dst, std::uint64_t seq,
                       std::uint32_t attempt);

  /// Should this ack transmission be lost? `ack_no` is the pair's ack
  /// counter (acks are not retransmitted; re-acks roll fresh).
  bool drop_ack(int src, int dst, std::uint64_t ack_no);

  /// Should heater pass `pass_no` stall, and for how long? Returns the
  /// stall in ns (0 = run normally).
  std::uint64_t heater_stall_ns(std::uint64_t pass_no);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// The raw deterministic roll in [0,1) for a site/tuple — exposed so
  /// tests can predict decisions.
  static double roll(std::uint64_t seed, FaultSite site, int src, int dst,
                     std::uint64_t seq, std::uint32_t attempt);

 private:
  bool site_fires(FaultSite site, int src, int dst, std::uint64_t seq,
                  std::uint32_t attempt) const;

  FaultPlan plan_;
  FaultStats stats_;
};

}  // namespace semperm::fault
