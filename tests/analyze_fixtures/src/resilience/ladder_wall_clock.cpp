// Seeded fixture for semperm_analyze: determinism-wall-clock under
// src/resilience, whose ladder runs inside the steering simulation.
//
// Expected findings: determinism-wall-clock x1 (the untagged
// steady_clock::now). The tagged read must stay clean.

#include <chrono>

namespace semperm::fixture {

long ladder_clocks() {
  long t = std::chrono::steady_clock::now().time_since_epoch().count();
  // semperm-analyze: allow(determinism-wall-clock) -- fixture: a justified native watchdog clock stays clean
  t += std::chrono::steady_clock::now().time_since_epoch().count();
  return t;
}

}  // namespace semperm::fixture
