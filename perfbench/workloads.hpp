// perfbench/workloads.hpp
//
// The benchmark's three workloads. Each is a fixed list of entry-point
// calls (the "fixed input"); a seed variant re-salts every call's model
// seed, and variant 0 keeps the committed figure/table seeds.
//
//   app_model  workloads::run_app_model — AMG and MiniFE at 1024 (baseline
//              and LLA-2 queues) and FDS at 1024 with the pooled heater,
//              all on Broadwell.
//   mt_decomp  motifs::run_mt_decomp — the Table 1 rows on KNL with the
//              64-core coherent cost model on.
//   steering   traffic::run_steering — Sandy Bridge, Zipf s=1.05, heater
//              on: 2^20 flows, 10^7 flows, and a 10x flash crowd with the
//              resilience layer on.
//
// For every call the benchmark can run the entry point itself, time the
// construction of its simulated machine and inputs, or re-drive the same
// loop through the layers' public calls under a Tracer (redrive.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "motifs/mt_decomp.hpp"
#include "spans.hpp"
#include "traffic/steering.hpp"
#include "workloads/app_model.hpp"

namespace perfbench {

/// Named numbers, in a fixed order: modeled outputs or modeled counts.
using Fields = std::vector<std::pair<std::string, double>>;

enum class CallKind { kAppModel, kMtDecomp, kSteering };

struct Call {
  std::string name;
  CallKind kind;
  semperm::workloads::AppModelParams app;
  semperm::motifs::MtDecompParams mt;
  semperm::traffic::SteeringParams steer;
};

/// The fixed input of `workload` at seed `variant`; empty if unknown.
std::vector<Call> workload_calls(const std::string& workload,
                                 std::uint64_t variant);

/// Run the product entry point; returns its modeled outputs.
Fields run_entry(const Call& call);

/// Re-drive the call through the layers' public calls with every call
/// wrapped in a span. Returns the same modeled outputs as run_entry;
/// `counts` receives the modeled per-layer counts.
Fields redrive(const Call& call, Tracer& tracer, Fields& counts);

/// Host seconds to build the call's simulated machine and inputs: the
/// re-drive's set-up, which runs the same public constructors as the entry
/// point (hierarchies, engines with their standing queues and rule tables,
/// heater, flow table, flow generator), stopped where the simulated run
/// starts. Teardown is not timed.
double time_setup(const Call& call);

Fields fields_of(const semperm::workloads::AppModelResult& r);
Fields fields_of(const semperm::motifs::MtDecompResult& r);
Fields fields_of(const semperm::traffic::SteeringResult& r);

}  // namespace perfbench
