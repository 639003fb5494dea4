// Observability-layer tests (DESIGN.md §10): metric snapshot determinism
// across worker counts, sharded-histogram merge correctness, and the trace
// recorder's span nesting / export formats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/sparsifier.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "parallel/parallel_for.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace lightne {
namespace {

// ------------------------------------------------------- counters/gauges ----

TEST(MetricsTest, CounterAccumulatesAcrossThreads) {
  MetricsRegistry::Global().ResetForTest();
  Counter* c = MetricsRegistry::Global().GetCounter("test/counter");
  ParallelFor(0, 10000, [&](uint64_t i) { c->Add(i % 3); });
  // sum of i%3 over [0,10000) = 3333 full cycles * 3 + 0
  EXPECT_EQ(c->Value(), 9999u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(MetricsTest, GetReturnsStablePointer) {
  Counter* a = MetricsRegistry::Global().GetCounter("test/stable");
  Counter* b = MetricsRegistry::Global().GetCounter("test/stable");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, GaugeSetAndUpdateMax) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test/gauge");
  g->Set(42);
  EXPECT_EQ(g->Value(), 42u);
  g->UpdateMax(17);  // below: no-op
  EXPECT_EQ(g->Value(), 42u);
  g->UpdateMax(99);
  EXPECT_EQ(g->Value(), 99u);
  g->Set(5);  // Set always overwrites, even downward
  EXPECT_EQ(g->Value(), 5u);
}

// -------------------------------------------------------------- histogram ----

TEST(MetricsTest, HistogramMergeEqualsSerialReplay) {
  MetricsRegistry::Global().ResetForTest();
  const std::vector<double> bounds = {1, 2, 4, 8};
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test/hist", bounds);
  const uint64_t n = 50000;
  auto value_of = [](uint64_t i) { return static_cast<double>(i % 11); };
  ParallelFor(0, n, [&](uint64_t i) { h->Observe(value_of(i)); });

  // Serial replay of the same observation stream into plain counts.
  std::vector<uint64_t> expect(bounds.size() + 1, 0);
  for (uint64_t i = 0; i < n; ++i) {
    const double v = value_of(i);
    size_t b = 0;
    while (b < bounds.size() && v > bounds[b]) ++b;
    ++expect[b];
  }
  EXPECT_EQ(h->Counts(), expect);
  EXPECT_EQ(h->TotalCount(), n);
}

// ------------------------------------------------------ snapshot and JSON ----

TEST(MetricsTest, SnapshotJsonIsDeterministic) {
  MetricsRegistry::Global().ResetForTest();
  MetricsRegistry::Global().GetCounter("test/b")->Add(2);
  MetricsRegistry::Global().GetCounter("test/a")->Add(1);
  MetricsRegistry::Global().GetGauge("test/g")->Set(7);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("test/a"), 1u);
  EXPECT_EQ(snap.CounterValue("test/b"), 2u);
  EXPECT_EQ(snap.CounterValue("test/missing"), 0u);
  EXPECT_EQ(snap.GaugeValue("test/g"), 7u);
  const std::string json = snap.ToJson();
  // std::map keys: "test/a" serializes before "test/b".
  EXPECT_NE(json.find("\"test/a\": 1"), std::string::npos);
  EXPECT_LT(json.find("\"test/a\""), json.find("\"test/b\""));
  EXPECT_EQ(json, MetricsRegistry::Global().Snapshot().ToJson());
}

// ------------------------------------- sampler counters are deterministic ----

CsrGraph SamplerGraph() {
  return CsrGraph::FromEdges(GenerateRmat(9, 4000, 77));
}

SparsifierOptions SamplerOptions() {
  SparsifierOptions opt;
  opt.num_samples = 200000;
  opt.window = 5;
  opt.seed = 19;
  return opt;
}

TEST(MetricsTest, SparsifierCountersMatchResultExactly) {
  const CsrGraph g = SamplerGraph();
  MetricsRegistry::Global().ResetForTest();
  auto r = BuildSparsifier(g, SamplerOptions());
  ASSERT_TRUE(r.ok());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("sparsifier/builds"), 1u);
  EXPECT_EQ(snap.CounterValue("sparsifier/samples_drawn"), r->samples_drawn);
  EXPECT_EQ(snap.CounterValue("sparsifier/samples_accepted"),
            r->samples_accepted);
  EXPECT_EQ(snap.CounterValue("sparsifier/mass_fp20"), r->mass_fp20);
  EXPECT_GT(r->mass_fp20, 0u);
  EXPECT_EQ(snap.GaugeValue("sparsifier/distinct_entries"),
            r->distinct_entries);
}

TEST(MetricsTest, SamplerSnapshotBitIdenticalAcrossWorkerCounts) {
  const CsrGraph g = SamplerGraph();
  // Forced 1-worker run.
  MetricsRegistry::Global().ResetForTest();
  {
    SequentialRegion seq;
    ASSERT_TRUE(BuildSparsifier(g, SamplerOptions()).ok());
  }
  MetricsSnapshot serial = MetricsRegistry::Global().Snapshot();
  // Pool-parallel run (the _mt4 variant is where this test bites).
  MetricsRegistry::Global().ResetForTest();
  ASSERT_TRUE(BuildSparsifier(g, SamplerOptions()).ok());
  MetricsSnapshot parallel = MetricsRegistry::Global().Snapshot();
  for (const char* name :
       {"sparsifier/samples_drawn", "sparsifier/samples_accepted",
        "sparsifier/mass_fp20", "sparsifier/builds"}) {
    EXPECT_EQ(serial.CounterValue(name), parallel.CounterValue(name)) << name;
  }
  EXPECT_EQ(serial.GaugeValue("sparsifier/distinct_entries"),
            parallel.GaugeValue("sparsifier/distinct_entries"));
}

// ------------------------------------------------------------------ trace ----

TEST(TraceTest, SpansNestAndRecordInCompletionOrder) {
  TraceRecorder& rec = TraceRecorder::Global();
  const uint64_t mark = rec.Mark();
  {
    TraceSpan outer("outer");
    { TraceSpan inner("inner"); }
    { TraceSpan inner2("inner2"); }
  }
  std::vector<TraceEvent> events = rec.EventsSince(mark);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "inner2");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_LE(events[2].start_us, events[0].start_us);
  EXPECT_GE(events[2].dur_us, events[0].dur_us + events[1].dur_us);
}

TEST(TraceTest, DisabledRecorderDropsNothingButRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  const uint64_t mark = rec.Mark();
  rec.set_enabled(false);
  { TraceSpan hidden("hidden"); }
  rec.set_enabled(true);
  EXPECT_TRUE(rec.EventsSince(mark).empty());
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(TraceTest, StageTimerEmitsTraceEvents) {
  TraceRecorder& rec = TraceRecorder::Global();
  const uint64_t mark = rec.Mark();
  {
    StageTimer timer;
    timer.Start("stage_a");
    timer.Start("stage_b");  // implicitly stops stage_a
  }                          // destructor stops stage_b
  std::vector<TraceEvent> events = rec.EventsSince(mark);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "stage_a");
  EXPECT_EQ(events[1].name, "stage_b");
  EXPECT_EQ(events[0].depth, events[1].depth);
}

TEST(TraceTest, StageTimerStagesMatchTraceSeconds) {
  TraceRecorder& rec = TraceRecorder::Global();
  const uint64_t mark = rec.Mark();
  StageTimer timer;
  timer.Start("only_stage");
  timer.Stop();
  ASSERT_EQ(timer.stages().size(), 1u);
  std::vector<TraceEvent> events = rec.EventsSince(mark);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(TraceRecorder::SecondsFor(events, "only_stage"),
                   timer.SecondsFor("only_stage"));
}

TEST(TraceTest, ChromeTraceExportContainsEvents) {
  std::vector<TraceEvent> events = {
      {"alpha", 10, 5, 0, 0},
      {"be\"ta", 12, 2, 0, 1},
  };
  // Per-process name: metrics_test_mt4 runs concurrently under `ctest -j`.
  const std::string path = ::testing::TempDir() + "/trace_test_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(TraceRecorder::WriteChromeTrace(events, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[512];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(content.find("\\\"ta"), std::string::npos);  // quote escaped
  EXPECT_NE(content.find("\"ts\": 10"), std::string::npos);
  EXPECT_NE(content.find("\"dur\": 5"), std::string::npos);
}

TEST(TraceTest, BreakdownTableIndentsChildren) {
  std::vector<TraceEvent> events = {
      {"child", 5, 10, 0, 1},
      {"parent", 0, 100, 0, 0},
  };
  const std::string table = TraceRecorder::BreakdownTable(events);
  const size_t parent_pos = table.find("parent");
  const size_t child_pos = table.find("  child");
  ASSERT_NE(parent_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);
  EXPECT_LT(parent_pos, child_pos);  // parent row precedes its child
  EXPECT_NE(table.find("100.0%"), std::string::npos);  // parent is the total
}

}  // namespace
}  // namespace lightne
