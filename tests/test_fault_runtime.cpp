// Property tests of the simmpi reliability sublayer under chaos
// (DESIGN.md §12): for every fault scenario in the matrix, the stream of
// payloads each rank *receives* must be bit-identical to a fault-free
// shadow run of the same program, and the transport's conservation
// identity
//
//   frames_sent + retransmissions + dup_copies
//     == wire_drops + dup_suppressed + delivered
//
// must hold exactly at quiesce, with every unique frame delivered
// exactly once. Retransmission *counts* are wall-clock dependent and are
// deliberately not compared across runs — only the delivered semantics
// and the accounting identity are invariant.

#include "simmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace semperm::simmpi {
namespace {

match::QueueConfig qc(const std::string& label) {
  return match::QueueConfig::from_label(label);
}

/// Chaos scenarios of the acceptance matrix: drops at and below 5%, pure
/// duplication, pure reordering, delay spikes, a burst brown-out, and
/// everything at once. Delay spikes are kept short (100 us) and the
/// retransmit timer tight so sanitizer runs stay fast.
std::vector<std::string> chaos_matrix() {
  return {
      "drop=0.05,seed=1",
      "dup=0.10,seed=2",
      "reorder=0.10,seed=3",
      "delay=0.05,delay-ns=100000,seed=4",
      "drop@40+20,seed=5",
      "drop=0.02,dup=0.02,reorder=0.02,delay=0.02,delay-ns=100000,seed=6",
  };
}

RuntimeOptions chaos_options(const fault::FaultPlan* plan) {
  RuntimeOptions opt;
  opt.fault_plan = plan;
  opt.retransmit_timeout_ns = 100'000;     // 100 us keeps recovery quick
  opt.retransmit_backoff_cap_ns = 800'000;
  opt.reorder_hold_ns = 200'000;
  opt.transport_poll_ns = 20'000;
  return opt;
}

/// Ring traffic with per-rank payload recording: every rank streams kMsgs
/// tagged integers to its right neighbour and receives the same count
/// from its left; the receive order (non-overtaking per sender) makes the
/// recorded stream a complete semantic fingerprint of delivery.
std::vector<std::vector<int>> run_ring(int nranks, int msgs,
                                       const fault::FaultPlan* plan) {
  std::vector<std::vector<int>> received(static_cast<std::size_t>(nranks));
  Runtime rt(nranks, qc("lla-8"), chaos_options(plan));
  rt.run([&](Comm& c) {
    const int right = (c.rank() + 1) % nranks;
    const int left = (c.rank() + nranks - 1) % nranks;
    auto& mine = received[static_cast<std::size_t>(c.rank())];
    mine.reserve(static_cast<std::size_t>(msgs));
    for (int i = 0; i < msgs; ++i) {
      c.send_value<int>(right, 3, c.rank() * 100000 + i);
      mine.push_back(c.recv_value<int>(left, 3));
    }
  });
  if (plan != nullptr) {
    const auto w = rt.wire_stats();
    EXPECT_TRUE(w.conserved())
        << "sent=" << w.frames_sent << " retx=" << w.retransmissions
        << " dup_copies=" << w.dup_copies << " drops=" << w.wire_drops
        << " dup_suppressed=" << w.dup_suppressed
        << " delivered=" << w.delivered;
    // Quiesced: every unique frame was delivered in order exactly once.
    EXPECT_EQ(w.delivered, w.frames_sent);
  }
  return received;
}

TEST(FaultRuntime, TransportActivationMatchesBuild) {
  const auto plan = fault::FaultPlan::parse("drop=0.05");
  Runtime chaos(2, qc("baseline"), chaos_options(&plan));
  EXPECT_TRUE(chaos.transport_active());
  Runtime clean(2, qc("baseline"));
  EXPECT_FALSE(clean.transport_active());
  const auto stall_only = fault::FaultPlan::parse("stall=0.5");
  Runtime stall(2, qc("baseline"), chaos_options(&stall_only));
  EXPECT_FALSE(stall.transport_active());  // no network site active
}

TEST(FaultRuntime, DeliveredStreamBitIdenticalAcrossChaosMatrix) {
  constexpr int kRanks = 3;
  constexpr int kMsgs = 60;
  const auto shadow = run_ring(kRanks, kMsgs, nullptr);
  for (const auto& spec : chaos_matrix()) {
    const auto plan = fault::FaultPlan::parse(spec);
    const auto chaos = run_ring(kRanks, kMsgs, &plan);
    EXPECT_EQ(chaos, shadow) << "scenario: " << spec;
  }
}

TEST(FaultRuntime, UnexpectedPathSurvivesChaos) {
  // Flood-then-drain: all messages arrive unexpected (pure UMQ matching),
  // received in reverse tag order, under the combined scenario.
  const auto plan =
      fault::FaultPlan::parse("drop=0.03,dup=0.05,reorder=0.05,seed=17");
  Runtime rt(2, qc("lla-2"), chaos_options(&plan));
  rt.run([](Comm& c) {
    constexpr int kN = 24;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send_value<int>(1, 100 + i, 7 * i);
      c.barrier();
    } else {
      c.barrier();
      for (int i = kN - 1; i >= 0; --i)
        EXPECT_EQ(c.recv_value<int>(0, 100 + i), 7 * i);
    }
  });
  EXPECT_TRUE(rt.wire_stats().conserved());
}

TEST(FaultRuntime, RendezvousPayloadsSurviveChaos) {
  // 48 KiB payloads exceed the eager threshold, so the RTS/CTS/RdvData
  // control frames themselves ride the lossy wire.
  const auto plan = fault::FaultPlan::parse("drop=0.05,reorder=0.05,seed=23");
  Runtime rt(2, qc("baseline"), chaos_options(&plan));
  rt.run([](Comm& c) {
    std::vector<std::uint64_t> payload(6144);
    if (c.rank() == 0) {
      for (int round = 0; round < 4; ++round) {
        std::iota(payload.begin(), payload.end(),
                  static_cast<std::uint64_t>(round) * 1000);
        c.send(1, round, std::as_bytes(std::span<const std::uint64_t>(payload)));
      }
    } else {
      for (int round = 0; round < 4; ++round) {
        std::fill(payload.begin(), payload.end(), ~std::uint64_t{0});
        c.recv(0, round,
               std::as_writable_bytes(std::span<std::uint64_t>(payload)));
        EXPECT_EQ(payload.front(), static_cast<std::uint64_t>(round) * 1000);
        EXPECT_EQ(payload.back(),
                  static_cast<std::uint64_t>(round) * 1000 + 6143);
      }
    }
  });
  EXPECT_TRUE(rt.wire_stats().conserved());
}

TEST(FaultRuntime, CollectivesCompleteUnderHeavyLoss) {
  // A brutal 40% drop rate with a low forced-delivery cap: barriers,
  // broadcasts and reductions must still terminate and agree.
  const auto plan = fault::FaultPlan::parse("drop=0.4,max-attempts=6,seed=31");
  Runtime rt(4, qc("baseline"), chaos_options(&plan));
  rt.run([](Comm& c) {
    for (int round = 0; round < 3; ++round) {
      c.barrier();
      int value = c.rank() == 0 ? 900 + round : -1;
      c.bcast(0, std::as_writable_bytes(std::span<int>(&value, 1)));
      EXPECT_EQ(value, 900 + round);
      const double total = c.allreduce_sum(static_cast<double>(c.rank()));
      EXPECT_DOUBLE_EQ(total, 6.0);
    }
  });
  const auto w = rt.wire_stats();
  EXPECT_TRUE(w.conserved());
  EXPECT_GT(w.wire_drops, 0u);  // the scenario actually did something
  EXPECT_EQ(w.delivered, w.frames_sent);
}

TEST(FaultRuntime, InjectorCountersAggregateAcrossRanks) {
  const auto plan = fault::FaultPlan::parse("drop=0.10,dup=0.10,seed=41");
  Runtime rt(3, qc("baseline"), chaos_options(&plan));
  rt.run([](Comm& c) {
    const int peer = (c.rank() + 1) % 3;
    const int from = (c.rank() + 2) % 3;
    for (int i = 0; i < 40; ++i) {
      c.send_value<int>(peer, 1, i);
      EXPECT_EQ(c.recv_value<int>(from, 1), i);
    }
  });
  const auto f = rt.fault_stats();
  EXPECT_GT(f.rolls, 0u);
  EXPECT_GT(f.drops + f.duplicates, 0u);
  const auto w = rt.wire_stats();
  EXPECT_TRUE(w.conserved());
  EXPECT_GT(w.acks_sent, 0u);
}

}  // namespace
}  // namespace semperm::simmpi
