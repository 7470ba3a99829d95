#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/run_telemetry.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/thread_pool.h"
#include "json_reader.h"

namespace ctfl {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::Span;

/// Shared fixture hygiene: every test starts with tracing off + clean
/// buffer so tests are order-independent.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetTracingEnabled(false);
    telemetry::ClearTrace();
    telemetry::SetTraceCapacity(65536);
  }
  void TearDown() override {
    telemetry::SetTracingEnabled(false);
    telemetry::ClearTrace();
    telemetry::SetTraceCapacity(65536);
  }
};

// ---------------------------------------------------------------------------
// Counters / gauges / registry.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, CounterBasics) {
  Counter& c = MetricsRegistry::Global().GetCounter("test.counter.basics");
  c.Reset();
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name returns the same instrument.
  EXPECT_EQ(&MetricsRegistry::Global().GetCounter("test.counter.basics"),
            &c);
}

TEST_F(TelemetryTest, GaugeLastWriteWins) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge.basics");
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(TelemetryTest, RegistryConcurrencyHammer) {
  // Hammer one counter + one histogram from ThreadPool workers while also
  // racing registration of fresh names; every increment must land.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter& shared =
      MetricsRegistry::Global().GetCounter("test.concurrency.shared");
  shared.Reset();
  Histogram& hist = MetricsRegistry::Global().GetHistogram(
      "test.concurrency.hist", {1.0, 10.0, 100.0});
  hist.Reset();

  ThreadPool pool(kThreads);
  std::atomic<int> registered{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([t, &shared, &hist, &registered] {
      for (int i = 0; i < kPerThread; ++i) {
        shared.Add(1);
        hist.Observe(static_cast<double>(i % 200));
        if (i % 1000 == 0) {
          // Racy registration of both fresh and shared names.
          MetricsRegistry::Global()
              .GetCounter("test.concurrency.t" + std::to_string(t))
              .Add(1);
          MetricsRegistry::Global()
              .GetCounter("test.concurrency.contended")
              .Add(1);
          registered.fetch_add(1);
        }
      }
    });
  }
  pool.Wait();

  EXPECT_EQ(shared.value(), kThreads * kPerThread);
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t b : hist.BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.count());
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter("test.concurrency.contended")
                .value(),
            registered.load());
}

// ---------------------------------------------------------------------------
// Histogram bucketing edge cases.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, HistogramBucketEdges) {
  Histogram h({0.0, 10.0, 100.0});
  h.Observe(-5.0);   // below first bound -> bucket 0
  h.Observe(0.0);    // exactly on a bound -> that bucket (v <= bound)
  h.Observe(10.0);   // on the second bound -> bucket 1
  h.Observe(10.5);   // -> bucket 2
  h.Observe(100.0);  // on the last bound -> bucket 2
  h.Observe(1e9);    // above all bounds -> overflow
  const std::vector<int64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);  // -5, 0
  EXPECT_EQ(counts[1], 1);  // 10
  EXPECT_EQ(counts[2], 2);  // 10.5, 100
  EXPECT_EQ(counts[3], 1);  // 1e9
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), -5.0 + 0.0 + 10.0 + 10.5 + 100.0 + 1e9);
}

TEST_F(TelemetryTest, HistogramNonFiniteGoesToOverflow) {
  Histogram h({1.0});
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(-std::numeric_limits<double>::infinity());
  const std::vector<int64_t> counts = h.BucketCounts();
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(h.count(), 3);
  EXPECT_TRUE(std::isfinite(h.sum()));  // non-finite values excluded
}

TEST_F(TelemetryTest, HistogramQuantiles) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) h.Observe(0.5);  // bucket 0
  for (int i = 0; i < 49; ++i) h.Observe(1.5);  // bucket 1
  h.Observe(100.0);                             // overflow
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.ApproxQuantile(0.75), 2.0);
  EXPECT_TRUE(std::isinf(h.ApproxQuantile(1.0)));
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.ApproxQuantile(0.5), 0.0);
}

TEST_F(TelemetryTest, LatencyBoundsAreAscending) {
  const std::vector<double> bounds = Histogram::LatencyMicrosBounds();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------------------
// Spans + trace buffer + Chrome export.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledSpanRecordsNothing) {
  { Span span("test.disabled"); }
  EXPECT_EQ(telemetry::TraceEventCount(), 0u);
}

TEST_F(TelemetryTest, SpansRecordNestingAndDuration) {
  telemetry::SetTracingEnabled(true);
  {
    Span outer("test.outer");
    {
      CTFL_SPAN("test.inner");
    }
  }
  const std::vector<telemetry::TraceEvent> events = telemetry::TraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends first, so it is appended first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[0].start_us, events[1].start_us);
  EXPECT_LE(events[0].duration_us, events[1].duration_us);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TelemetryTest, SpanEndIsIdempotent) {
  telemetry::SetTracingEnabled(true);
  Span span("test.end");
  span.End();
  span.End();  // no double-record
  EXPECT_EQ(telemetry::TraceEventCount(), 1u);
  EXPECT_FALSE(span.active());
}

TEST_F(TelemetryTest, BoundedBufferCountsDrops) {
  telemetry::SetTracingEnabled(true);
  telemetry::SetTraceCapacity(4);
  for (int i = 0; i < 10; ++i) {
    Span span("test.drop");
  }
  EXPECT_EQ(telemetry::TraceEventCount(), 4u);
  EXPECT_EQ(telemetry::DroppedSpanCount(), 6u);
}

TEST_F(TelemetryTest, ChromeTraceJsonParsesBack) {
  telemetry::SetTracingEnabled(true);
  {
    Span outer("ctfl.test.outer");
    Span weird("name with \"quotes\" and \\slash\n");
    { CTFL_SPAN("ctfl.test.inner"); }
  }
  // Spans from a second thread must carry a different tid.
  ThreadPool pool(2);
  pool.Submit([] { Span span("ctfl.test.worker"); });
  pool.Wait();

  const std::string json = telemetry::ChromeTraceJson();
  Result<JsonValue> parsed = json_reader::Parser(json).Parse();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const JsonValue& root = parsed.value();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), 4u);

  bool saw_worker_tid = false;
  int main_tid = -1;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(event.Find(key), nullptr) << "missing " << key;
    }
    EXPECT_EQ(event.Find("ph")->string, "X");
    EXPECT_EQ(event.Find("cat")->string, "ctfl");
    EXPECT_GE(event.Find("dur")->number, 0.0);
    const std::string& name = event.Find("name")->string;
    const int tid = static_cast<int>(event.Find("tid")->number);
    if (name == "ctfl.test.worker") {
      saw_worker_tid = true;
    } else {
      main_tid = tid;
    }
    if (name == "name with \"quotes\" and \\slash\n") {
      // Escapes survived the round trip.
      SUCCEED();
    }
  }
  // Nesting: inner's [ts, ts+dur] lies within outer's on the same tid.
  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& event : events->array) {
    if (event.Find("name")->string == "ctfl.test.outer") outer = &event;
    if (event.Find("name")->string == "ctfl.test.inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->Find("ts")->number, outer->Find("ts")->number);
  EXPECT_LE(inner->Find("ts")->number + inner->Find("dur")->number,
            outer->Find("ts")->number + outer->Find("dur")->number + 1.0);
  EXPECT_TRUE(saw_worker_tid);
  EXPECT_GE(main_tid, 0);
}

TEST_F(TelemetryTest, TraceSummaryTableAggregates) {
  telemetry::SetTracingEnabled(true);
  for (int i = 0; i < 3; ++i) {
    Span span("test.summary");
  }
  const std::string table = telemetry::TraceSummaryTable();
  EXPECT_NE(table.find("test.summary"), std::string::npos);
  EXPECT_NE(table.find("3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScopedTimer + RunTelemetry formatting.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ScopedTimerAccumulatesSeconds) {
  double total = 0.0;
  {
    telemetry::ScopedTimer timer(&total);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(total, 0.0);
  const double first = total;
  { telemetry::ScopedTimer timer(&total); }
  EXPECT_GE(total, first);  // accumulates, not overwrites
}

TEST_F(TelemetryTest, ScopedTimerFeedsHistogram) {
  Histogram h({1e6});  // everything lands at or below 1s
  { telemetry::ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), 1);
}

TEST_F(TelemetryTest, RunTelemetrySummaryMentionsAllSections) {
  telemetry::RunTelemetry run;
  run.train_seconds = 1.0;
  run.upload_seconds = 0.125;
  run.trace_seconds = 0.5;
  run.allocate_seconds = 0.25;
  run.grafting_steps = 123;
  run.rules_total = 10;
  run.rules_kept = 7;
  run.rules_pruned = 3;
  run.trace_keys = 42;
  run.tau_w_checks = 1000;
  run.related_records = 77;
  run.rounds.push_back({0, 0.5, 0.9, 4});
  const std::string summary = run.Summary();
  EXPECT_NE(summary.find("train"), std::string::npos);
  EXPECT_NE(summary.find("upload"), std::string::npos);
  EXPECT_NE(summary.find("trace"), std::string::npos);
  EXPECT_NE(summary.find("allocate"), std::string::npos);
  EXPECT_NE(summary.find("123"), std::string::npos);
  EXPECT_NE(summary.find("round 0"), std::string::npos);
  EXPECT_NE(summary.find("7 kept"), std::string::npos);
  EXPECT_DOUBLE_EQ(run.total_seconds(), 1.875);
}

TEST_F(TelemetryTest, MetricsSummaryTableListsInstruments) {
  MetricsRegistry::Global().GetCounter("test.summary.counter").Add(5);
  MetricsRegistry::Global().GetGauge("test.summary.gauge").Set(2.5);
  const std::string table = MetricsRegistry::Global().SummaryTable();
  EXPECT_NE(table.find("test.summary.counter"), std::string::npos);
  EXPECT_NE(table.find("test.summary.gauge"), std::string::npos);
  const MetricsRegistry::Snapshot snapshot =
      MetricsRegistry::Global().TakeSnapshot();
  EXPECT_EQ(snapshot.counters.at("test.summary.counter"), 5);
}

TEST_F(TelemetryTest, SnapshotCarriesHistogramDigest) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.digest", {1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) h.Observe(0.5);
  for (int i = 0; i < 49; ++i) h.Observe(1.5);
  h.Observe(100.0);
  const MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  const auto& data = snapshot.histograms.at("test.digest");
  EXPECT_EQ(data.count, 100);
  EXPECT_DOUBLE_EQ(data.sum, 50 * 0.5 + 49 * 1.5 + 100.0);
  EXPECT_DOUBLE_EQ(data.p50, 1.0);
  EXPECT_DOUBLE_EQ(data.p90, 2.0);
  EXPECT_DOUBLE_EQ(data.p99, 2.0);  // rank 99 is still in bucket le=2
}

TEST_F(TelemetryTest, SummaryTableShowsHistogramCountSumQuantiles) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "test.summary.histo", {1.0, 10.0});
  h.Observe(0.5);
  h.Observe(5.0);
  const std::string table = MetricsRegistry::Global().SummaryTable();
  EXPECT_NE(table.find("test.summary.histo"), std::string::npos);
  EXPECT_NE(table.find("n="), std::string::npos) << table;
  EXPECT_NE(table.find("sum="), std::string::npos) << table;
  EXPECT_NE(table.find("p50<="), std::string::npos) << table;
  EXPECT_NE(table.find("p90<="), std::string::npos) << table;
  EXPECT_NE(table.find("p99<="), std::string::npos) << table;
}

// ---------------------------------------------------------------------------
// Profiling-grade span CPU time.
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, SpanRecordsThreadCpuWithinWall) {
  telemetry::SetTracingEnabled(true);
  {
    Span span("test.cpu");
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i) sink = sink + i * 1e-9;
  }
  const std::vector<telemetry::TraceEvent> events =
      telemetry::TraceEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].cpu_us, 0);
  // A span's thread-CPU delta never exceeds its wall duration (allow 1ms
  // of clock granularity between the two clocks).
  EXPECT_LE(events[0].cpu_us, events[0].duration_us + 1000);
}

TEST_F(TelemetryTest, ChromeTraceArgsCarryCpuMicros) {
  telemetry::SetTracingEnabled(true);
  { Span span("test.cpu.args"); }
  const std::string json = telemetry::ChromeTraceJson();
  Result<JsonValue> parsed = json_reader::Parser(json).Parse();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const JsonValue& root = parsed.value();
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  const JsonValue* args = events->array[0].Find("args");
  ASSERT_NE(args, nullptr);
  const JsonValue* cpu_us = args->Find("cpu_us");
  ASSERT_NE(cpu_us, nullptr) << json;
  EXPECT_GE(cpu_us->number, 0.0);
  EXPECT_LE(cpu_us->number,
            events->array[0].Find("dur")->number + 1000.0);
}

TEST_F(TelemetryTest, TraceSummaryTableHasCpuColumn) {
  telemetry::SetTracingEnabled(true);
  { Span span("test.cpu.table"); }
  const std::string table = telemetry::TraceSummaryTable();
  EXPECT_NE(table.find("cpu_ms"), std::string::npos) << table;
}

TEST_F(TelemetryTest, RunTelemetrySummaryShowsCpuAndResources) {
  telemetry::RunTelemetry run;
  run.train_seconds = 1.0;
  run.train_cpu_seconds = 1.5;  // parallel training: cpu > wall
  run.trace_seconds = 0.5;
  run.trace_cpu_seconds = 0.5;
  run.allocate_seconds = 0.25;
  run.allocate_cpu_seconds = 0.25;
  run.max_rss_kb = 2048;
  run.voluntary_ctx_switches = 10;
  run.involuntary_ctx_switches = 3;
  const std::string summary = run.Summary();
  EXPECT_NE(summary.find("cpu_s"), std::string::npos) << summary;
  EXPECT_NE(summary.find("max_rss=2048kB"), std::string::npos) << summary;
  EXPECT_NE(summary.find("10 voluntary"), std::string::npos) << summary;
  EXPECT_DOUBLE_EQ(run.total_cpu_seconds(), 2.25);
}

}  // namespace
}  // namespace ctfl
