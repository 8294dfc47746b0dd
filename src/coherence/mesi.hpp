// semperm/coherence/mesi.hpp
//
// MESI line states and protocol-event counters for the multi-core coherent
// hierarchy. The model is a directory-lite one: one entry per privately
// held line (sharer bitmap plus the single E/M owner) filters snoops, so
// coherence cost is charged only when a remote core actually has to act —
// which also guarantees a 1-core CoherentHierarchy degenerates to the
// single-core Hierarchy.
#pragma once

#include <cstdint>

namespace semperm::coherence {

/// Classic MESI. A private line is in exactly one of these states per core,
/// derived from the line's directory entry: kInvalid when the core is not
/// a sharer (or the line has no entry), kExclusive/kModified for the
/// entry's owner, kShared for every other sharer.
enum class MesiState : std::uint8_t {
  kInvalid,
  kShared,     // clean, possibly multiple cores
  kExclusive,  // clean, this core only
  kModified,   // dirty, this core only
};

inline const char* to_string(MesiState s) {
  switch (s) {
    case MesiState::kInvalid: return "I";
    case MesiState::kShared: return "S";
    case MesiState::kExclusive: return "E";
    case MesiState::kModified: return "M";
  }
  return "?";
}

/// Protocol-event counters, aggregated across all cores.
struct CoherenceStats {
  /// Snoop rounds that reached a remote core (directory filtered the rest).
  std::uint64_t snoops = 0;
  /// Remote copies dropped S/E→I because another core wrote the line.
  std::uint64_t invalidations = 0;
  /// Cache-to-cache supplies out of a remote Modified copy (M→S or M→I).
  std::uint64_t interventions = 0;
  /// Remote E→S downgrades on a read (clean, no data writeback needed).
  std::uint64_t clean_downgrades = 0;
  /// Local S→M upgrades (read-for-ownership without a data transfer).
  std::uint64_t upgrades = 0;
  /// Modified lines written back (interventions, private evictions,
  /// inclusive-LLC back-invalidations).
  std::uint64_t dirty_writebacks = 0;
  /// Private copies dropped because the inclusive LLC evicted their line.
  std::uint64_t back_invalidations = 0;
  /// Contended lock-line transfers observed (charged by the match-queue
  /// shadow model and the heater registry lock).
  std::uint64_t lock_transfers = 0;

  std::uint64_t total_events() const {
    return snoops + invalidations + interventions + clean_downgrades +
           upgrades + dirty_writebacks + back_invalidations + lock_transfers;
  }

  CoherenceStats& operator+=(const CoherenceStats& o) {
    snoops += o.snoops;
    invalidations += o.invalidations;
    interventions += o.interventions;
    clean_downgrades += o.clean_downgrades;
    upgrades += o.upgrades;
    dirty_writebacks += o.dirty_writebacks;
    back_invalidations += o.back_invalidations;
    lock_transfers += o.lock_transfers;
    return *this;
  }
};

/// Who currently occupies the shared LLC — the heater-vs-application
/// breakdown behind the paper's Fig. 3 occupancy argument.
struct LlcOccupancy {
  std::size_t heater_lines = 0;  // resident lines last filled by the heater
  std::size_t other_lines = 0;   // demand/prefetch residents
  std::size_t capacity_lines = 0;

  double heater_fraction() const {
    return capacity_lines > 0
               ? static_cast<double>(heater_lines) /
                     static_cast<double>(capacity_lines)
               : 0.0;
  }
};

}  // namespace semperm::coherence
