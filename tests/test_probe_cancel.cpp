// MPI_Probe / MPI_Cancel semantics: non-destructive peek and
// removal-by-request, across every queue structure, the engine, and the
// runtime.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cachesim/arch.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/mem_model.hpp"
#include "match/factory.hpp"
#include "simmpi/runtime.hpp"

namespace semperm {
namespace {

using match::Envelope;
using match::MatchRequest;
using match::Pattern;
using match::PostedEntry;
using match::UnexpectedEntry;

class PeekRemoveTest : public ::testing::TestWithParam<std::string> {
 protected:
  PeekRemoveTest()
      : bundle_(match::make_engine(mem_, space_, config())) {}

  match::QueueConfig config() const {
    auto cfg = match::QueueConfig::from_label(GetParam());
    if (cfg.kind == match::QueueKind::kOmpiBins ||
        cfg.kind == match::QueueKind::kFourDim)
      cfg.bins = 32;
    return cfg;
  }

  NativeMem mem_;
  memlayout::AddressSpace space_;
  match::EngineBundle<NativeMem> bundle_;
  MatchRequest reqs_[16];
};

TEST_P(PeekRemoveTest, PeekDoesNotConsume) {
  auto& prq = bundle_->prq();
  prq.append(PostedEntry::from(Pattern::make(1, 7, 0), &reqs_[0]));
  auto seen = prq.peek(Envelope{7, 1, 0});
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->req, &reqs_[0]);
  EXPECT_EQ(prq.size(), 1u);  // still there
  // Peeking again yields the same entry; removing then really consumes.
  EXPECT_TRUE(prq.peek(Envelope{7, 1, 0}).has_value());
  EXPECT_TRUE(prq.find_and_remove(Envelope{7, 1, 0}).has_value());
  EXPECT_FALSE(prq.peek(Envelope{7, 1, 0}).has_value());
}

TEST_P(PeekRemoveTest, PeekRespectsFifoOrder) {
  auto& prq = bundle_->prq();
  prq.append(PostedEntry::from(Pattern::make(2, 9, 0), &reqs_[0]));
  prq.append(PostedEntry::from(Pattern::make(2, 9, 0), &reqs_[1]));
  EXPECT_EQ(prq.peek(Envelope{9, 2, 0})->req, &reqs_[0]);
}

TEST_P(PeekRemoveTest, PeekMissOnEmptyAndNonMatching) {
  auto& prq = bundle_->prq();
  EXPECT_FALSE(prq.peek(Envelope{1, 1, 0}).has_value());
  prq.append(PostedEntry::from(Pattern::make(1, 7, 0), &reqs_[0]));
  EXPECT_FALSE(prq.peek(Envelope{8, 1, 0}).has_value());
}

TEST_P(PeekRemoveTest, UmqPeekWithWildcards) {
  auto& umq = bundle_->umq();
  umq.append(UnexpectedEntry::from(Envelope{3, 4, 0}, &reqs_[0]));
  umq.append(UnexpectedEntry::from(Envelope{5, 6, 0}, &reqs_[1]));
  auto any = umq.peek(Pattern::make(match::kAnySource, match::kAnyTag, 0));
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->req, &reqs_[0]);  // earliest arrival
  auto specific = umq.peek(Pattern::make(6, match::kAnyTag, 0));
  ASSERT_TRUE(specific.has_value());
  EXPECT_EQ(specific->req, &reqs_[1]);
  EXPECT_EQ(umq.size(), 2u);
}

TEST_P(PeekRemoveTest, RemoveByRequestTargetsExactEntry) {
  auto& prq = bundle_->prq();
  for (int i = 0; i < 5; ++i)
    prq.append(PostedEntry::from(Pattern::make(1, 7, 0), &reqs_[i]));
  // Remove the middle posting; FIFO among the rest must be preserved.
  EXPECT_TRUE(prq.remove_by_request(&reqs_[2]));
  EXPECT_EQ(prq.size(), 4u);
  EXPECT_FALSE(prq.remove_by_request(&reqs_[2]));  // already gone
  EXPECT_EQ(prq.find_and_remove(Envelope{7, 1, 0})->req, &reqs_[0]);
  EXPECT_EQ(prq.find_and_remove(Envelope{7, 1, 0})->req, &reqs_[1]);
  EXPECT_EQ(prq.find_and_remove(Envelope{7, 1, 0})->req, &reqs_[3]);
  EXPECT_EQ(prq.find_and_remove(Envelope{7, 1, 0})->req, &reqs_[4]);
}

TEST_P(PeekRemoveTest, RemoveByRequestOnWildcardEntry) {
  auto& prq = bundle_->prq();
  prq.append(PostedEntry::from(
      Pattern::make(match::kAnySource, match::kAnyTag, 0), &reqs_[0]));
  EXPECT_TRUE(prq.remove_by_request(&reqs_[0]));
  EXPECT_EQ(prq.size(), 0u);
  EXPECT_FALSE(prq.find_and_remove(Envelope{1, 1, 0}).has_value());
}

TEST_P(PeekRemoveTest, EngineCancelAndProbe) {
  MatchRequest recv(match::RequestKind::kRecv, 1);
  bundle_->post_recv(Pattern::make(1, 7, 0), &recv);
  EXPECT_TRUE(bundle_->cancel_recv(&recv));
  EXPECT_FALSE(bundle_->cancel_recv(&recv));
  // The message now goes unexpected and is visible to probe.
  MatchRequest msg(match::RequestKind::kUnexpected, 2);
  bundle_->incoming(Envelope{7, 1, 0}, &msg);
  auto probed = bundle_->probe(Pattern::make(1, 7, 0));
  ASSERT_TRUE(probed.has_value());
  EXPECT_EQ(*probed, (Envelope{7, 1, 0}));
  EXPECT_EQ(bundle_->umq().size(), 1u);  // probe did not consume
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PeekRemoveTest,
                         ::testing::Values("baseline", "lla-2", "lla-8",
                                           "ompi", "hash-16", "4d-32"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- a probe over simulated memory is one batch -------------------------

/// One side of the twin test: a Sandy Bridge hierarchy and a baseline-list
/// engine whose UMQ holds 64 entries the probe pattern never matches, the
/// shape of steering's rule table.
struct RuleTable {
  cachesim::Hierarchy hier{cachesim::sandy_bridge()};
  cachesim::SimMem mem{hier};
  memlayout::AddressSpace space;
  match::EngineBundle<cachesim::SimMem> bundle =
      match::make_engine(mem, space, match::QueueConfig{});
  std::vector<MatchRequest> rules = std::vector<MatchRequest>(64);

  RuleTable() {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      rules[i] = MatchRequest(match::RequestKind::kUnexpected, i);
      bundle->incoming(Envelope{1000 + static_cast<int>(i), 2, 0}, &rules[i]);
    }
  }
};

void expect_same_stats(const cachesim::Hierarchy& a,
                       const cachesim::Hierarchy& b, int at) {
  EXPECT_EQ(a.stats().accesses, b.stats().accesses) << at;
  EXPECT_EQ(a.stats().lines_touched, b.stats().lines_touched) << at;
  EXPECT_EQ(a.stats().dram_fetches, b.stats().dram_fetches) << at;
  EXPECT_EQ(a.stats().total_cycles, b.stats().total_cycles) << at;
  for (unsigned lvl = 0; lvl < a.level_count(); ++lvl)
    EXPECT_EQ(a.level(lvl).stats(), b.level(lvl).stats())
        << at << " " << a.level(lvl).name();
}

TEST(ProbeReplay, BatchedProbeChargesWhatAnUnbatchedPeekDoes) {
  RuleTable batched;
  RuleTable twin;
  const Pattern miss = Pattern::make(3, 7, 0);
  for (int i = 0; i < 300; ++i) {
    // What steering does between rule walks: compute phases and heater
    // refreshes of the table.
    if (i % 40 == 20) {
      batched.hier.pollute(4 << 20);
      twin.hier.pollute(4 << 20);
    }
    if (i % 50 == 45) {
      batched.hier.heater_touch(batched.bundle.arena->sim_base(),
                                batched.bundle.arena->used());
      twin.hier.heater_touch(twin.bundle.arena->sim_base(),
                             twin.bundle.arena->used());
    }
    EXPECT_FALSE(batched.bundle->probe(miss).has_value());
    EXPECT_FALSE(twin.bundle->umq().peek(miss).has_value());
    EXPECT_EQ(batched.mem.cycles(), twin.mem.cycles()) << i;
    expect_same_stats(batched.hier, twin.hier, i);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(batched.hier.replayed_batches(), 0u);
  EXPECT_EQ(twin.hier.replayed_batches(), 0u);
}

// --- runtime-level iprobe / cancel ---------------------------------------

TEST(RuntimeProbe, IprobeSeesBufferedMessage) {
  simmpi::Runtime rt(2, match::QueueConfig::from_label("baseline"));
  rt.run([](simmpi::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<double>(1, 5, 2.5);
      c.barrier();
    } else {
      c.barrier();  // message has surely arrived
      c.progress();
      const auto st = c.iprobe(0, 5);
      ASSERT_TRUE(st.has_value());
      EXPECT_EQ(st->source, 0);
      EXPECT_EQ(st->tag, 5);
      EXPECT_EQ(st->bytes, sizeof(double));
      // Probe is non-destructive: the receive still gets the payload.
      EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 5), 2.5);
      EXPECT_FALSE(c.iprobe(0, 5).has_value());
    }
  });
}

TEST(RuntimeProbe, IprobeMissesAbsentTraffic) {
  simmpi::Runtime rt(1, match::QueueConfig::from_label("lla-8"));
  rt.run([](simmpi::Comm& c) {
    EXPECT_FALSE(c.iprobe(simmpi::kAnySource, simmpi::kAnyTag).has_value());
  });
}

TEST(RuntimeCancel, CancelledReceiveLeavesMessageUnexpected) {
  simmpi::Runtime rt(2, match::QueueConfig::from_label("baseline"));
  rt.run([](simmpi::Comm& c) {
    if (c.rank() == 0) {
      int sink = -1;
      simmpi::Request r =
          c.irecv(1, 9, std::as_writable_bytes(std::span<int>(&sink, 1)));
      EXPECT_TRUE(c.cancel(r));
      EXPECT_FALSE(r.valid());
      c.barrier();  // now the message arrives with no posted receive
      // It must be retrievable by a fresh receive (it sat unexpected).
      EXPECT_EQ(c.recv_value<int>(1, 9), 77);
    } else {
      c.barrier();
      c.send_value<int>(0, 9, 77);
    }
  });
}

TEST(RuntimeCancel, CancelAfterCompletionFails) {
  simmpi::Runtime rt(2, match::QueueConfig::from_label("baseline"));
  rt.run([](simmpi::Comm& c) {
    if (c.rank() == 0) {
      int v = -1;
      simmpi::Request r =
          c.irecv(1, 3, std::as_writable_bytes(std::span<int>(&v, 1)));
      c.barrier();   // sender has sent; message delivered
      c.progress();  // match it
      EXPECT_FALSE(c.cancel(r));  // too late: completed
      const simmpi::Status st = c.wait(r);
      EXPECT_EQ(st.tag, 3);
      EXPECT_EQ(v, 11);
    } else {
      c.send_value<int>(0, 3, 11);
      c.barrier();
    }
  });
}

}  // namespace
}  // namespace semperm
