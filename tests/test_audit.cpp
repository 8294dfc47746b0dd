// The invariant-audit layer (src/check/): the MESI legality table, and —
// when the audits are compiled in — proof that each auditor actually
// detects injected corruption (a checker that cannot fail its subject is
// no checker at all). Release builds compile the audits out; the seeded
// tests skip there.

#include <gtest/gtest.h>

#include <string>

#include "cachesim/arch.hpp"
#include "cachesim/cache.hpp"
#include "check/audit.hpp"
#include "check/mesi_rules.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "match/engine.hpp"
#include "match/factory.hpp"

namespace semperm {
namespace {

using cachesim::FillReason;
using cachesim::SetAssocCache;
using cachesim::sandy_bridge;
using coherence::CoherentHierarchy;
using coherence::MesiState;

// ---------------------------------------------------------------- rules --

TEST(MesiRules, SelfLoopsAreLegal) {
  for (MesiState s : {MesiState::kInvalid, MesiState::kShared,
                      MesiState::kExclusive, MesiState::kModified})
    EXPECT_TRUE(check::mesi_transition_legal(s, s)) << to_string(s);
}

TEST(MesiRules, IllegalEdges) {
  // A Shared copy can never silently become Exclusive, and ownership is
  // never downgraded to clean-exclusive.
  EXPECT_FALSE(
      check::mesi_transition_legal(MesiState::kShared, MesiState::kExclusive));
  EXPECT_FALSE(check::mesi_transition_legal(MesiState::kModified,
                                            MesiState::kExclusive));
}

TEST(MesiRules, LegalProtocolEdges) {
  using S = MesiState;
  const std::pair<S, S> legal[] = {
      {S::kInvalid, S::kShared},    {S::kInvalid, S::kExclusive},
      {S::kInvalid, S::kModified},  {S::kShared, S::kModified},
      {S::kShared, S::kInvalid},    {S::kExclusive, S::kModified},
      {S::kExclusive, S::kShared},  {S::kExclusive, S::kInvalid},
      {S::kModified, S::kShared},   {S::kModified, S::kInvalid},
  };
  for (const auto& [from, to] : legal)
    EXPECT_TRUE(check::mesi_transition_legal(from, to))
        << to_string(from) << " -> " << to_string(to);
}

TEST(MesiRules, RequireThrowsWithUsefulMessage) {
  try {
    check::require_mesi_transition(MesiState::kShared, MesiState::kExclusive,
                                   /*core=*/3, /*line=*/0x42);
    FAIL() << "expected AuditError";
  } catch (const check::AuditError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("S -> E"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 3"), std::string::npos) << msg;
  }
}

TEST(MesiRules, RequireAcceptsLegalEdge) {
  EXPECT_NO_THROW(check::require_mesi_transition(
      MesiState::kExclusive, MesiState::kModified, 0, 0x42));
}

// ------------------------------------------------- seeded violations -----

// Run `fn`, which must throw AuditError, and return its message.
template <class Fn>
std::string audit_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const check::AuditError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected semperm::check::AuditError";
  return {};
}

#if SEMPERM_AUDIT

TEST(SeededViolation, CacheLruDuplicateDetected) {
  SetAssocCache cache("T", 2048, 4);  // 8 sets x 4 ways
  for (Addr line = 0; line < 24; ++line)
    cache.fill(line, FillReason::kDemand);
  EXPECT_NO_THROW(cache.audit());

  cache.audit_corrupt_lru_for_test(/*line=*/0);
  const std::string msg = audit_error_of([&] { cache.audit(); });
  EXPECT_NE(msg.find("not a permutation"), std::string::npos) << msg;
}

TEST(SeededViolation, CacheGrownMarkMissingDetected) {
  SetAssocCache cache("T", 2048, 4);  // 8 sets x 4 ways
  cache.fill(/*line=*/13, FillReason::kDemand);  // set 5 gains a line
  EXPECT_NO_THROW(cache.audit());

  // Forget the mark: set 5 now exceeds the ungrown bound (0 on a new
  // cache), so a pollute trimming only grown sets would skip it.
  cache.audit_clear_grown_for_test(/*line=*/13);
  const std::string msg = audit_error_of([&] { cache.audit(); });
  EXPECT_NE(msg.find("set 5 is not marked grown"), std::string::npos) << msg;
}

TEST(SeededViolation, MesiTwoOwnerMixDetected) {
  CoherentHierarchy h(sandy_bridge(), 2);
  const Addr line = 0x1000;
  h.access_line(0, line, /*write=*/false);
  h.access_line(1, line, /*write=*/false);  // both cores now Shared
  ASSERT_EQ(h.state(0, line), MesiState::kShared);
  ASSERT_EQ(h.state(1, line), MesiState::kShared);
  EXPECT_NO_THROW(h.audit());

  // Promote one copy to Modified behind the protocol's back: an owner now
  // coexists with another sharer.
  h.audit_corrupt_state_for_test(1, line, MesiState::kModified);
  const std::string msg = audit_error_of([&] { h.audit(); });
  EXPECT_NE(msg.find("owner"), std::string::npos) << msg;
}

TEST(SeededViolation, MesiStateWithoutPrivateCopyDetected) {
  CoherentHierarchy h(sandy_bridge(), 2);
  EXPECT_NO_THROW(h.audit());
  // Exclusive state for a line no cache holds: a sharer bit must mean a
  // private copy, so the full walk must flag the entry.
  h.audit_corrupt_state_for_test(0, /*line=*/0x9999, MesiState::kExclusive);
  ASSERT_EQ(h.state(0, 0x9999), MesiState::kExclusive);
  const std::string msg = audit_error_of([&] { h.audit(); });
  EXPECT_NE(msg.find("without a private copy"), std::string::npos) << msg;
}

TEST(SeededViolation, UmqShadowDivergenceDetected) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto bundle =
      match::make_engine(mem, space, match::QueueConfig::from_label("baseline"));

  match::MatchRequest msg(match::RequestKind::kUnexpected, 1);
  bundle->incoming(match::Envelope{5, 1, 0}, &msg);
  EXPECT_NO_THROW(bundle->audit());

  // Inject a phantom buffered message into the shadow only: live counts
  // now diverge.
  match::MatchRequest phantom(match::RequestKind::kUnexpected, 2);
  bundle->audit_corrupt_umq_shadow_for_test(
      match::UnexpectedEntry::from(match::Envelope{6, 2, 0}, &phantom));
  const std::string msg1 = audit_error_of([&] { bundle->audit(); });
  EXPECT_NE(msg1.find("diverges"), std::string::npos) << msg1;
}

TEST(SeededViolation, UmqMissedMatchDetected) {
  NativeMem mem;
  memlayout::AddressSpace space;
  auto bundle =
      match::make_engine(mem, space, match::QueueConfig::from_label("baseline"));

  // The shadow holds a phantom the real queue does not: a receive matching
  // only the phantom exposes the miss.
  match::MatchRequest phantom(match::RequestKind::kUnexpected, 1);
  bundle->audit_corrupt_umq_shadow_for_test(
      match::UnexpectedEntry::from(match::Envelope{7, 3, 0}, &phantom));
  match::MatchRequest recv(match::RequestKind::kRecv, 2);
  const std::string msg = audit_error_of(
      [&] { bundle->post_recv(match::Pattern::make(3, 7, 0), &recv); });
  EXPECT_NE(msg.find("missed a queued match"), std::string::npos) << msg;
}

#else  // !SEMPERM_AUDIT

TEST(SeededViolation, SkippedWithoutAuditLayer) {
  GTEST_SKIP() << "SEMPERM_AUDIT is compiled out in this configuration";
}

#endif  // SEMPERM_AUDIT

}  // namespace
}  // namespace semperm
