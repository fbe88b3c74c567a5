// Unit tests of the benchmark harness's own statistics: the percentile
// helper and its ten-samples-beyond rule, open-loop due-time accounting,
// and freshness attribution.
#include "harness.h"

#include <gtest/gtest.h>

#include <numeric>

namespace e2ebench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileTest, NearestRankOnShuffledInput) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile(v, 0.5), 3);   // rank ceil(2.5) = 3
  EXPECT_EQ(Percentile(v, 0.8), 4);   // rank 4
  EXPECT_EQ(Percentile(v, 0.81), 5);  // rank ceil(4.05) = 5
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Percentile({}, 0.5), 0);
}

TEST(PercentileTest, NinetyNinthOfAThousand) {
  EXPECT_EQ(Percentile(Iota(1000), 0.99), 990);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  // p99 needs 1000 samples (10 beyond rank 990); 999 leave only 9.
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  // p95 needs 200, p90 needs 100.
  EXPECT_TRUE(PercentileSupported(200, 0.95));
  EXPECT_FALSE(PercentileSupported(199, 0.95));
  EXPECT_TRUE(PercentileSupported(100, 0.90));
  EXPECT_FALSE(PercentileSupported(99, 0.90));
  EXPECT_TRUE(PercentileSupported(20, 0.50));
  EXPECT_FALSE(PercentileSupported(19, 0.50));
}

TEST(PercentileTest, WindowedPercentileIgnoresOneStalledWindow) {
  // Three windows of 20; the middle one holds a 100x stall at its p50.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 20; ++i) v.push_back(w == 1 && i > 5 ? 100.0 * i : i);
  }
  v.push_back(1e9);  // partial trailing window: dropped
  EXPECT_EQ(WindowedPercentile(v, 20, 0.5), 10);
  EXPECT_EQ(WindowedPercentile(v, 0, 0.5), 0);
  EXPECT_EQ(WindowedPercentile(v, 100, 0.5), 0);
}

TEST(PercentileTest, WindowedRateIsTheMedianWindow) {
  // Windows of 2 operations taking 1 s, 4 s, and 2 s.
  const std::vector<double> done = {10.5, 11.0, 13.0, 15.0, 16.0, 17.0, 99.0};
  EXPECT_DOUBLE_EQ(WindowedRate(done, 10.0, 2), 1.0);  // rates 2, 0.5, 1
}

TEST(OpenLoopTest, LatencyIsMeasuredFromDueTime) {
  // Due every 10 ms; the second request stalls for 25 ms, so the third is
  // issued 5 ms after it fell due and is charged that wait.
  const std::vector<OpenLoopSample> s = {
      {0.000, 0.000, 0.002},
      {0.010, 0.010, 0.035},
      {0.020, 0.035, 0.037},
      {0.040, 0.046, 0.048},  // idle client woke 6 ms late
  };
  const OpenLoopStats st = AccountOpenLoop(s);
  ASSERT_EQ(st.latency.size(), 4u);
  EXPECT_NEAR(st.latency[0], 0.002, 1e-12);
  EXPECT_NEAR(st.latency[1], 0.025, 1e-12);
  EXPECT_NEAR(st.latency[2], 0.017, 1e-12);  // 37 - 20, not 37 - 35
  EXPECT_NEAR(st.latency[3], 0.002, 1e-12);  // its 6 ms lateness excluded
  // Queue wait: only while the client was still busy past the due time.
  EXPECT_NEAR(st.queue_wait[2], 0.015, 1e-12);
  EXPECT_NEAR(st.lateness[2], 0.0, 1e-12);
  // Lateness: the generator itself issuing late with the client idle.
  EXPECT_NEAR(st.queue_wait[3], 0.0, 1e-12);
  EXPECT_NEAR(st.lateness[3], 0.006, 1e-12);
}

TEST(OpenLoopTest, BusyClientThenLateWakeSplitsTheWait) {
  // Previous request ends 3 ms after this one's due time, and the client
  // issues it 1 ms after that: 3 ms queue wait + 1 ms lateness.
  const std::vector<OpenLoopSample> s = {{0.0, 0.0, 0.013},
                                         {0.010, 0.014, 0.015}};
  const OpenLoopStats st = AccountOpenLoop(s);
  EXPECT_NEAR(st.queue_wait[1], 0.003, 1e-12);
  EXPECT_NEAR(st.lateness[1], 0.001, 1e-12);
  EXPECT_NEAR(st.latency[1], 0.004, 1e-12);  // 5 ms from due - 1 ms late
}

TEST(OpenLoopTest, MergeOrdersClientsByDueTime) {
  // Client 0 owns requests due at 0 and 2, client 1 the one due at 1.
  const OpenLoopStats all = MergeOpenLoop(
      {AccountOpenLoop({{0, 0, 1}, {2, 3, 4}}),
       AccountOpenLoop({{1, 1, 1.5}})});
  EXPECT_EQ(all.due, (std::vector<double>{0, 1, 2}));
  EXPECT_EQ(all.latency, (std::vector<double>{1, 0.5, 1}));
  EXPECT_EQ(all.lateness, (std::vector<double>{0, 0, 1}));
  EXPECT_EQ(all.queue_wait.size(), 3u);
}

TEST(FreshnessTest, AttributedToTheIngestThatRefreshed) {
  FreshnessTracker f;
  f.OnIngest(0.0, 0.1, false);
  f.OnIngest(0.2, 0.3, false);
  f.OnIngest(0.4, 1.4, true);  // this call ran the refresh, ending at 1.4
  ASSERT_EQ(f.freshness().size(), 3u);
  EXPECT_NEAR(f.freshness()[0], 1.4, 1e-12);
  EXPECT_NEAR(f.freshness()[1], 1.2, 1e-12);
  EXPECT_NEAR(f.freshness()[2], 1.0, 1e-12);
  EXPECT_EQ(f.refreshes(), 1u);
  EXPECT_EQ(f.pending(), 0u);
}

TEST(FreshnessTest, FinalRefreshClosesTheTail) {
  FreshnessTracker f;
  f.OnIngest(0.0, 0.5, true);
  f.OnIngest(1.0, 1.1, false);
  f.OnIngest(2.0, 2.1, false);
  EXPECT_EQ(f.pending(), 2u);
  f.OnRefresh(3.0);
  ASSERT_EQ(f.freshness().size(), 3u);
  EXPECT_NEAR(f.freshness()[1], 2.0, 1e-12);
  EXPECT_NEAR(f.freshness()[2], 1.0, 1e-12);
  EXPECT_EQ(f.refreshes(), 2u);
  f.OnRefresh(4.0);  // nothing pending: not a refresh of any edge
  EXPECT_EQ(f.refreshes(), 2u);
}

TEST(SpanTest, RecordsNestingAndRequest) {
  SpanRecorder r;
  r.Enable(true);
  const uint64_t root = r.Begin("root", 0, 0);
  const uint64_t a = r.Begin("a", root, 7);
  r.End(a);
  r.End(root);
  const std::vector<SpanRecord> spans = r.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
}

TEST(SpanTest, RenamedSpansAreSelectedByTheirNewName) {
  SpanRecorder r;
  r.Enable(true);
  for (int i = 0; i < 3; ++i) {
    const uint64_t id = r.Begin("ingest", 0, i + 1);
    r.End(id);
    if (i == 1) r.Rename(id, "ingest.refreshing");
  }
  const std::vector<SpanRecord> spans = r.Spans();
  EXPECT_EQ(SpanSeconds(spans, "ingest").size(), 2u);
  ASSERT_EQ(SpanSeconds(spans, "ingest.refreshing").size(), 1u);
  EXPECT_EQ(SpanSeconds(spans, "ingest.refreshing")[0],
            spans[1].end - spans[1].start);
  EXPECT_TRUE(SpanSeconds(spans, "other").empty());
}

TEST(SpanTest, DisabledRecorderRecordsNothing) {
  SpanRecorder r;
  EXPECT_EQ(r.Begin("x", 0, 0), 0u);
  r.End(0);
  EXPECT_TRUE(r.Spans().empty());
}

}  // namespace
}  // namespace e2ebench
