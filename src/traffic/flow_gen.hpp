// semperm/traffic/flow_gen.hpp
//
// Deterministic, seedable flow-population generators (DESIGN.md §13.1).
//
// A generator is an infinite packet stream: next() yields the flow id of
// the next arriving packet. Destination popularity follows a bounded
// Zipf(s) distribution over `flows` (the destination-locality regime of
// "Characteristics of Destination Address Locality in Computer Networks"),
// scattered through a RankMixer so hot flows do not cluster in adjacent
// cache sets. Three temporal envelopes modulate the population:
//
//  * steady      — the Zipf marginal at every packet;
//  * diurnal     — the active prefix of the population ramps between a
//                  floor and the full size over a fixed period (a traffic
//                  day compressed into `diurnal_period` packets);
//  * flash crowd — during [burst_start, burst_start + burst_len) packets
//                  (the same burst-schedule shape as fault::SiteSpec), a
//                  fraction of arrivals goes to `crowd_flows` *new* flow
//                  ids beyond the standing population, modelling a sudden
//                  audience that evicts the heated tail.
//
// Streaming contract: beyond the Zipf sampler's alias table (12 bytes per
// standing flow, built once in the constructor) the generator never
// materializes per-flow state or full address buffers — next_batch()
// fills a caller-supplied span, sized to whatever chunk the consumer feeds
// Hierarchy::simulate().
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "common/zipf.hpp"

namespace semperm::traffic {

inline constexpr std::uint64_t kTrafficDefaultSeed = 0x7aff1c5eedULL;

enum class TemporalPattern : std::uint8_t {
  kSteady,
  kDiurnal,
  kFlashCrowd,
};

const char* temporal_pattern_name(TemporalPattern p);

/// Parse "steady", "diurnal", "flash"/"flash-crowd". Throws
/// std::invalid_argument on unknown names.
TemporalPattern temporal_pattern_from_name(const std::string& name);

/// The flash-crowd window, in packet indices — deliberately the same
/// start/len shape as fault::SiteSpec's burst schedule so chaos plans and
/// traffic bursts compose mentally (and in tests) the same way.
struct FlashCrowdSpec {
  std::uint64_t burst_start = 0;
  std::uint64_t burst_len = 0;
  /// Share of in-window arrivals redirected to the crowd.
  double fraction = 0.5;
  /// Distinct crowd flow ids, allocated beyond the standing population:
  /// ids in [flows, flows + crowd_flows).
  std::uint64_t crowd_flows = 4096;
};

struct FlowGenParams {
  /// Standing population size (the paper regime: 10^5 .. 10^7).
  std::uint64_t flows = std::uint64_t{1} << 20;
  /// Zipf skew over destinations; 0 = uniform.
  double zipf_s = 1.0;
  std::uint64_t seed = kTrafficDefaultSeed;
  TemporalPattern pattern = TemporalPattern::kSteady;
  FlashCrowdSpec crowd;
  /// Packets per simulated day (diurnal pattern).
  std::uint64_t diurnal_period = std::uint64_t{1} << 16;
  /// Minimum active fraction of the population at the diurnal trough.
  double diurnal_floor = 0.1;
};

class FlowGenerator {
 public:
  explicit FlowGenerator(const FlowGenParams& params);

  /// Flow id of the next arriving packet.
  std::uint64_t next();

  /// Fill `out` with the next out.size() arrivals (the chunked streaming
  /// entry point). Returns out.size().
  std::size_t next_batch(std::span<std::uint64_t> out);

  /// Packets generated so far.
  std::uint64_t generated() const { return t_; }

  /// Is packet index `t` inside the flash-crowd window?
  bool in_crowd_window(std::uint64_t t) const {
    return params_.pattern == TemporalPattern::kFlashCrowd &&
           t >= params_.crowd.burst_start &&
           t - params_.crowd.burst_start < params_.crowd.burst_len;
  }

  /// Active population size at packet index `t` (diurnal envelope;
  /// `flows` for the other patterns).
  std::uint64_t active_flows_at(std::uint64_t t) const;

  /// Total distinct flow ids this generator can emit (standing population
  /// plus any crowd) — the id-space bound consumers size tables against.
  std::uint64_t id_space() const;

  const FlowGenParams& params() const { return params_; }

 private:
  FlowGenParams params_;
  ZipfSampler zipf_;
  RankMixer mixer_;
  Rng rng_;
  std::uint64_t t_ = 0;
};

}  // namespace semperm::traffic
