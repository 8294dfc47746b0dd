// semperm/simmpi/network_model.hpp
//
// First-order wire model (latency + bandwidth, LogGP flavoured) for the
// interconnects of the paper's three testbeds (§4.1). Used by the
// simulated experiment drivers to convert message sizes into transfer
// time; it is what makes the large-message curves of Figs. 4–7 converge
// ("the network's data transfer speed becomes the bottleneck").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace semperm::simmpi {

struct NetworkModel {
  std::string name;
  double latency_ns = 1000.0;       // end-to-end base latency
  double bandwidth_bytes_per_ns = 3.0;  // sustained payload bandwidth

  /// Time on the wire for `bytes` of payload.
  double transfer_ns(std::size_t bytes) const {
    return latency_ns + static_cast<double>(bytes) / bandwidth_bytes_per_ns;
  }

  double bandwidth_mibps() const {
    return bandwidth_bytes_per_ns * 1e9 / (1024.0 * 1024.0);
  }
};

/// QLogic InfiniBand QDR (Sandy Bridge system).
inline NetworkModel qdr_infiniband() {
  // ~3.4 GB/s effective payload bandwidth, ~1.2 us latency.
  return NetworkModel{"IB-QDR", 1200.0, 3.4};
}

/// OmniPath (Broadwell system).
inline NetworkModel omnipath() {
  return NetworkModel{"OmniPath", 1000.0, 3.2};
}

/// Mellanox QDR (Nehalem system).
inline NetworkModel mellanox_qdr() {
  return NetworkModel{"Mlx-QDR", 1500.0, 3.0};
}

}  // namespace semperm::simmpi
