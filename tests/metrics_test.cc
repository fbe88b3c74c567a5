// Concurrency and registry tests for the observability layer (DESIGN.md
// §8): counters and histograms hammered from ThreadPool workers must report
// exact totals, sharded merges must be independent of thread interleaving,
// and snapshots must export through TableWriter/JSON without perturbing the
// recorded values.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nn/cpu_dispatch.h"
#include "util/metrics.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"

namespace ehna {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Each test uses its own metric names so tests stay independent even
/// though the registry is process-global.
TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.hammer");
  c->Reset();
  const size_t kThreads = 8;
  const uint64_t kPerTask = 10000;
  ThreadPool pool(kThreads);
  for (size_t t = 0; t < 32; ++t) {
    pool.Submit([c] {
      for (uint64_t i = 0; i < kPerTask; ++i) c->Add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(c->Total(), 32 * kPerTask);
}

TEST(CounterTest, WeightedAddsAndReset) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.weighted");
  c->Reset();
  c->Add(5);
  c->Add();  // default delta 1.
  EXPECT_EQ(c->Total(), 6u);
  c->Reset();
  EXPECT_EQ(c->Total(), 0u);
}

TEST(CounterTest, RegistryReturnsStablePointerPerName) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.counter.stable");
  Counter* b = MetricsRegistry::Global().GetCounter("test.counter.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MetricsRegistry::Global().GetCounter("test.counter.other"));
}

TEST(GaugeTest, LastWriteWinsAndRoundTripsDoubles) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge.basic");
  g->Set(1.5);
  g->Set(-273.125);
  EXPECT_EQ(g->Value(), -273.125);
  g->Set(1e308);
  EXPECT_EQ(g->Value(), 1e308);
  g->Reset();
  EXPECT_EQ(g->Value(), 0.0);
}

TEST(GaugeTest, PinnedGaugeSurvivesResetAndDisabledMetrics) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge.pinned");
  MetricsRegistry::SetEnabled(false);
  g->Pin(3.0);  // configuration facts are recorded even when disabled.
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(g->Value(), 3.0);
  g->Set(5.0);
  EXPECT_EQ(g->Value(), 5.0);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(g->Value(), 3.0);
}

// The ISA is resolved once per process, at the first kernel call; a
// registry reset afterwards must not make the gauge report scalar while
// AVX2 kernels run.
TEST(GaugeTest, KernelIsaGaugeReportsActiveIsaAfterReset) {
  const double want =
      kernels::ActiveIsa() == kernels::KernelIsa::kAvx2 ? 1.0 : 0.0;
  Gauge* g = MetricsRegistry::Global().GetGauge("kernels.isa.avx2");
  EXPECT_EQ(g->Value(), want);
  MetricsRegistry::Global().Reset();
  EXPECT_EQ(g->Value(), want);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().GaugeValue("kernels.isa.avx2"),
            want);
}

TEST(StreamingHistogramTest, ConcurrentRecordsMergeToExactCountAndSum) {
  StreamingHistogram* h =
      MetricsRegistry::Global().GetHistogram("test.hist.hammer");
  h->Reset();
  const size_t kTasks = 24;
  const uint64_t kPerTask = 5000;
  ThreadPool pool(8);
  for (size_t t = 0; t < kTasks; ++t) {
    pool.Submit([h, t] {
      for (uint64_t i = 0; i < kPerTask; ++i) h->Record(t * 1000 + i);
    });
  }
  pool.Wait();
  const HistogramData d = h->Merged();
  EXPECT_EQ(d.count(), kTasks * kPerTask);
  uint64_t expected_sum = 0;
  for (size_t t = 0; t < kTasks; ++t) {
    for (uint64_t i = 0; i < kPerTask; ++i) expected_sum += t * 1000 + i;
  }
  EXPECT_EQ(d.sum(), expected_sum);
  EXPECT_EQ(d.min(), 0u);
  EXPECT_EQ(d.max(), (kTasks - 1) * 1000 + kPerTask - 1);
}

TEST(StreamingHistogramTest, MergedResultIndependentOfInterleaving) {
  // Record the same multiset of samples under three different threading
  // regimes; the merged histograms must compare equal bucket-for-bucket.
  const std::vector<uint64_t> samples = [] {
    std::vector<uint64_t> s;
    for (uint64_t i = 0; i < 20000; ++i) {
      s.push_back((i * 2654435761u) % 1000000u);
    }
    return s;
  }();

  auto run = [&](const char* name, size_t threads) {
    StreamingHistogram* h = MetricsRegistry::Global().GetHistogram(name);
    h->Reset();
    if (threads <= 1) {
      for (uint64_t v : samples) h->Record(v);
    } else {
      ThreadPool pool(threads);
      pool.ParallelFor(samples.size(),
                       [&](size_t i) { h->Record(samples[i]); });
    }
    return h->Merged();
  };

  const HistogramData serial = run("test.hist.interleave_serial", 1);
  const HistogramData par2 = run("test.hist.interleave_par2", 2);
  const HistogramData par8 = run("test.hist.interleave_par8", 8);
  EXPECT_TRUE(serial == par2);
  EXPECT_TRUE(serial == par8);
  EXPECT_EQ(serial.count(), samples.size());
}

TEST(StreamingHistogramTest, DisabledRecordingIsDropped) {
  StreamingHistogram* h =
      MetricsRegistry::Global().GetHistogram("test.hist.disabled");
  Counter* c = MetricsRegistry::Global().GetCounter("test.counter.disabled");
  h->Reset();
  c->Reset();
  MetricsRegistry::SetEnabled(false);
  h->Record(42);
  c->Add(7);
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(h->Merged().count(), 0u);
  EXPECT_EQ(c->Total(), 0u);
  h->Record(42);
  c->Add(7);
  EXPECT_EQ(h->Merged().count(), 1u);
  EXPECT_EQ(c->Total(), 7u);
}

TEST(PhaseScopeTest, TraceMacroRecordsOnePerScopeExit) {
  StreamingHistogram* h =
      MetricsRegistry::Global().GetHistogram("test.phase.macro");
  h->Reset();
  for (int i = 0; i < 3; ++i) {
    EHNA_TRACE_PHASE("test.phase.macro");
  }
  EXPECT_EQ(h->Merged().count(), 3u);
}

TEST(PhaseScopeTest, DisabledScopeIsInert) {
  StreamingHistogram* h =
      MetricsRegistry::Global().GetHistogram("test.phase.inert");
  h->Reset();
  MetricsRegistry::SetEnabled(false);
  {
    EHNA_TRACE_PHASE("test.phase.inert");
  }
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(h->Merged().count(), 0u);
}

TEST(SnapshotTest, LookupHelpersAndPhaseSeconds) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snap.counter")->Reset();
  reg.GetCounter("test.snap.counter")->Add(11);
  reg.GetGauge("test.snap.gauge")->Set(2.5);
  StreamingHistogram* h = reg.GetHistogram("test.snap.phase");
  h->Reset();
  h->Record(1'500'000'000);  // 1.5 s in ns.
  h->Record(500'000'000);    // 0.5 s.

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("test.snap.counter"), 11u);
  EXPECT_EQ(snap.GaugeValue("test.snap.gauge"), 2.5);
  ASSERT_NE(snap.Histogram("test.snap.phase"), nullptr);
  EXPECT_EQ(snap.Histogram("test.snap.phase")->count(), 2u);
  EXPECT_NEAR(snap.PhaseSeconds("test.snap.phase"), 2.0, 1e-9);
  // Missing names degrade to zero / null, never crash.
  EXPECT_EQ(snap.CounterValue("test.snap.absent"), 0u);
  EXPECT_EQ(snap.GaugeValue("test.snap.absent"), 0.0);
  EXPECT_EQ(snap.Histogram("test.snap.absent"), nullptr);
  EXPECT_EQ(snap.PhaseSeconds("test.snap.absent"), 0.0);
}

TEST(SnapshotTest, EntriesAreNameSorted) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.sorted.b");
  reg.GetCounter("test.sorted.a");
  const MetricsSnapshot snap = reg.Snapshot();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (size_t i = 1; i < snap.histograms.size(); ++i) {
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
  }
}

TEST(SnapshotTest, WritesTsvAndJson) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.export.counter")->Reset();
  reg.GetCounter("test.export.counter")->Add(3);
  StreamingHistogram* h = reg.GetHistogram("test.export.hist");
  h->Reset();
  h->Record(10);
  h->Record(20);
  const MetricsSnapshot snap = reg.Snapshot();

  const auto dir = std::filesystem::temp_directory_path();
  const std::string tsv = (dir / "ehna_metrics_test.tsv").string();
  const std::string json = (dir / "ehna_metrics_test.json").string();
  ASSERT_TRUE(snap.WriteTsv(tsv).ok());
  ASSERT_TRUE(snap.WriteJson(json).ok());

  const std::string tsv_text = Slurp(tsv);
  EXPECT_NE(tsv_text.find("test.export.counter"), std::string::npos);
  EXPECT_NE(tsv_text.find("test.export.hist"), std::string::npos);

  const std::string json_text = Slurp(json);
  EXPECT_NE(json_text.find("\"test.export.counter\""), std::string::npos);
  EXPECT_NE(json_text.find("\"counters\""), std::string::npos);
  EXPECT_NE(json_text.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json_text.front(), '{');
  EXPECT_EQ(json_text[json_text.find_last_not_of('\n')], '}');

  std::filesystem::remove(tsv);
  std::filesystem::remove(json);
}

TEST(SnapshotTest, ToTableHasOneRowPerMetric) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.table.counter");
  reg.GetGauge("test.table.gauge");
  reg.GetHistogram("test.table.hist");
  const MetricsSnapshot snap = reg.Snapshot();
  TableWriter table = snap.ToTable();
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("test.table.counter"), std::string::npos);
  EXPECT_NE(out.find("test.table.gauge"), std::string::npos);
  EXPECT_NE(out.find("test.table.hist"), std::string::npos);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsPointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.reset.counter");
  Gauge* g = reg.GetGauge("test.reset.gauge");
  StreamingHistogram* h = reg.GetHistogram("test.reset.hist");
  c->Add(9);
  g->Set(4.0);
  h->Record(100);
  reg.Reset();
  EXPECT_EQ(c->Total(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Merged().count(), 0u);
  // Cached pointers still record after Reset.
  c->Add(2);
  EXPECT_EQ(reg.GetCounter("test.reset.counter"), c);
  EXPECT_EQ(c->Total(), 2u);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafeAndConsistent) {
  // Many threads race to register overlapping names; every thread must see
  // the same pointer for the same name.
  ThreadPool pool(8);
  std::vector<Counter*> seen(64, nullptr);
  pool.ParallelFor(seen.size(), [&](size_t i) {
    const std::string name =
        "test.race.counter." + std::to_string(i % 4);
    seen[i] = MetricsRegistry::Global().GetCounter(name);
    seen[i]->Add(1);
  });
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_NE(seen[i], nullptr);
    EXPECT_EQ(seen[i],
              MetricsRegistry::Global().GetCounter(
                  "test.race.counter." + std::to_string(i % 4)));
  }
}

}  // namespace
}  // namespace ehna
