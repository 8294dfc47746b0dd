#include "cachesim/prefetch.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace semperm::cachesim {
namespace {

/// An emit callback that appends each request to `out`, in emission order.
auto into(std::vector<PrefetchRequest>& out) {
  return [&out](const PrefetchRequest& req) { out.push_back(req); };
}

TEST(NextLine, FetchesFollowingLineIntoL1) {
  NextLinePrefetcher p;
  std::vector<PrefetchRequest> out;
  p.observe({10, true, false}, into(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 11u);
  EXPECT_EQ(out[0].target_level, 0u);
}

TEST(NextLine, StopsAtPageBoundary) {
  NextLinePrefetcher p;
  std::vector<PrefetchRequest> out;
  p.observe({kLinesPerPage - 1, true, false}, into(out));
  EXPECT_TRUE(out.empty());
}

TEST(AdjacentPair, FiresOnlyOnL2Miss) {
  AdjacentPairPrefetcher p;
  std::vector<PrefetchRequest> out;
  p.observe({10, /*l1_hit=*/true, /*l2_hit=*/false}, into(out));
  EXPECT_TRUE(out.empty());
  p.observe({10, false, /*l2_hit=*/true}, into(out));
  EXPECT_TRUE(out.empty());
  p.observe({10, false, false}, into(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 11u);  // pair mate of even line 10
  EXPECT_EQ(out[0].target_level, 1u);
}

TEST(AdjacentPair, PairMateOfOddLineIsBelow) {
  AdjacentPairPrefetcher p;
  std::vector<PrefetchRequest> out;
  p.observe({11, false, false}, into(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 10u);
}

TEST(Streamer, ArmsAfterTriggerRunAndFetchesDegree) {
  StreamPrefetcher p(/*trigger=*/2, /*degree=*/4);
  std::vector<PrefetchRequest> out;
  p.observe({100, false, false}, into(out));
  EXPECT_TRUE(out.empty());  // first touch allocates the stream
  p.observe({101, false, false}, into(out));
  ASSERT_EQ(out.size(), 4u);  // run of 2 reached: fetch 102..105
  EXPECT_EQ(out[0].line, 102u);
  EXPECT_EQ(out[3].line, 105u);
  for (const auto& r : out) EXPECT_EQ(r.target_level, 1u);
}

TEST(Streamer, RepeatSameLineDoesNotExtendRun) {
  StreamPrefetcher p(2, 2);
  std::vector<PrefetchRequest> out;
  p.observe({100, false, false}, into(out));
  p.observe({100, false, false}, into(out));
  p.observe({100, false, false}, into(out));
  EXPECT_TRUE(out.empty());
}

TEST(Streamer, DirectionBreakRearms) {
  StreamPrefetcher p(2, 2);
  std::vector<PrefetchRequest> out;
  p.observe({100, false, false}, into(out));
  p.observe({101, false, false}, into(out));
  out.clear();
  p.observe({50, false, false}, into(out));  // different page: new stream
  EXPECT_TRUE(out.empty());
  p.observe({90, false, false}, into(out));  // backward jump within page 1? no: page of 50 vs 90
  // Both 50 and 90 are in page 0 (64 lines/page): the jump resets the run.
  EXPECT_TRUE(out.empty());
}

TEST(Streamer, StopsAtPageEdge) {
  StreamPrefetcher p(2, 8);
  std::vector<PrefetchRequest> out;
  p.observe({kLinesPerPage - 3, false, false}, into(out));
  p.observe({kLinesPerPage - 2, false, false}, into(out));
  // Armed; only line kLinesPerPage-1 is within the page.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, kLinesPerPage - 1);
}

TEST(Streamer, TracksMultipleStreams) {
  StreamPrefetcher p(2, 1, /*table_size=*/4);
  std::vector<PrefetchRequest> out;
  // Interleave two pages; both must arm.
  p.observe({0, false, false}, into(out));
  p.observe({kLinesPerPage + 0, false, false}, into(out));
  p.observe({1, false, false}, into(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2u);
  out.clear();
  p.observe({kLinesPerPage + 1, false, false}, into(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, kLinesPerPage + 2);
}

TEST(Streamer, ResetForgetsStreams) {
  StreamPrefetcher p(2, 2);
  std::vector<PrefetchRequest> out;
  p.observe({100, false, false}, into(out));
  p.reset();
  p.observe({101, false, false}, into(out));
  EXPECT_TRUE(out.empty());  // run restarted after reset
}

}  // namespace
}  // namespace semperm::cachesim
