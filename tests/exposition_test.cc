#include "ctfl/telemetry/exposition.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/fl/fedavg.h"
#include "ctfl/fl/partition.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/util/rng.h"
#include "json_reader.h"
#include "test_paths.h"

namespace ctfl {
namespace {

using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshotWriter;
using telemetry::PrometheusMetricName;
using telemetry::PrometheusText;

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ExpositionTest, MetricNameSanitization) {
  EXPECT_EQ(PrometheusMetricName("ctfl.train.rounds"), "ctfl_train_rounds");
  EXPECT_EQ(PrometheusMetricName("already_fine:ok"), "already_fine:ok");
  EXPECT_EQ(PrometheusMetricName("9starts.with-digit"), "_starts_with_digit");
  EXPECT_EQ(PrometheusMetricName("mid9digit"), "mid9digit");
  EXPECT_EQ(PrometheusMetricName(""), "_");
}

TEST(ExpositionTest, PrometheusTextCoversAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("exp.requests").Add(7);
  registry.GetGauge("exp.parallelism").Set(2.5);
  telemetry::Histogram& hist =
      registry.GetHistogram("exp.latency", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(100.0);  // overflow bucket

  const std::string text = PrometheusText(registry.TakeSnapshot());

  EXPECT_NE(text.find("# TYPE exp_requests counter\nexp_requests 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE exp_parallelism gauge\nexp_parallelism 2.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE exp_latency histogram\n"), std::string::npos);
  // Buckets are cumulative and closed by +Inf.
  EXPECT_NE(text.find("exp_latency_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("exp_latency_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("exp_latency_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("exp_latency_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("exp_latency_count 3\n"), std::string::npos);
  // Quantile samples ride along; p99 lands in the overflow bucket, whose
  // upper bound is +Inf — the official Prometheus spelling.
  EXPECT_NE(text.find("exp_latency{quantile=\"0.5\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("exp_latency{quantile=\"0.99\"} +Inf\n"),
            std::string::npos);
}

TEST(ExpositionTest, PrometheusTextEmptyHistogramIsWellFormed) {
  MetricsRegistry registry;
  registry.GetHistogram("exp.idle", {1.0});
  const std::string text = PrometheusText(registry.TakeSnapshot());
  EXPECT_NE(text.find("exp_idle_count 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("exp_idle_sum 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("exp_idle_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
}

TEST(ExpositionTest, SnapshotWriterReportsOpenFailure) {
  MetricsSnapshotWriter writer("/nonexistent-dir/metrics.jsonl");
  EXPECT_FALSE(writer.status().ok());
  EXPECT_FALSE(writer.WriteLabeled("x").ok());
  EXPECT_EQ(writer.snapshots_written(), 0);
}

TEST(ExpositionTest, SnapshotLinesParseBackWithRoundAndDigests) {
  const std::string path = TempPath("exposition_snapshots.jsonl");
  MetricsSnapshotWriter writer(path);
  ASSERT_TRUE(writer.status().ok());

  telemetry::RoundTelemetry round;
  round.round = 3;
  round.seconds = 0.25;
  round.cpu_seconds = 0.125;
  round.mean_local_loss = 0.5;
  round.clients_trained = 4;
  round.clients_dropped = 1;
  round.retries = 2;
  round.degraded = true;
  ASSERT_TRUE(writer.WriteRound(round).ok());
  ASSERT_TRUE(writer.WriteLabeled("final").ok());
  EXPECT_EQ(writer.snapshots_written(), 2);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);

  auto first = ParseJson(lines[0]);
  ASSERT_TRUE(first.ok()) << lines[0];
  EXPECT_EQ(first->Find("seq")->AsInt64(), 0);
  EXPECT_EQ(first->Find("label")->string, "round_3");
  const JsonValue* r = first->Find("round");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Find("round")->AsInt64(), 3);
  EXPECT_EQ(r->Find("seconds")->number, 0.25);
  EXPECT_EQ(r->Find("cpu_seconds")->number, 0.125);
  EXPECT_EQ(r->Find("mean_local_loss")->number, 0.5);
  EXPECT_EQ(r->Find("clients_trained")->AsInt64(), 4);
  EXPECT_EQ(r->Find("clients_dropped")->AsInt64(), 1);
  EXPECT_EQ(r->Find("retries")->AsInt64(), 2);
  EXPECT_EQ(r->Find("degraded")->boolean, true);
  // Counters/gauges/histograms sections always exist (possibly empty).
  EXPECT_NE(first->Find("counters"), nullptr);
  EXPECT_NE(first->Find("gauges"), nullptr);
  EXPECT_NE(first->Find("histograms"), nullptr);

  auto second = ParseJson(lines[1]);
  ASSERT_TRUE(second.ok()) << lines[1];
  EXPECT_EQ(second->Find("seq")->AsInt64(), 1);
  EXPECT_EQ(second->Find("label")->string, "final");
  EXPECT_EQ(second->Find("round"), nullptr);
}

// End-to-end: FedAvg's model_observer feeds the writer one line per
// round (round 0, the initial model, writes none), and the written time
// series matches the RoundTelemetry that lands in FedAvgStats — the
// --metrics-out contract. The name predates the retired round_observer.
TEST(ExpositionTest, FedAvgRoundObserverProducesOneLinePerRound) {
  const std::string path = TempPath("exposition_fedavg.jsonl");
  MetricsSnapshotWriter writer(path);
  ASSERT_TRUE(writer.status().ok());

  Dataset data = GenerateTicTacToe();
  Rng rng(11);
  const std::vector<Dataset> clients = PartitionSkewSample(data, 3, 0.5,
                                                           rng);

  FedAvgConfig config;
  config.rounds = 3;
  config.local_epochs = 1;
  config.local.epochs = 1;
  config.num_threads = 1;
  config.model_observer = [&writer](int round, const LogicalNet&,
                                    const telemetry::RoundTelemetry& rt) {
    if (round > 0) {
      EXPECT_TRUE(writer.WriteRound(rt).ok());
    }
  };

  LogicalNetConfig net_config;
  net_config.logic_layers = {{8, 8}};
  FedAvgStats stats;
  auto net = TrainFederated(data.schema(), net_config, clients, config,
                            &stats);
  ASSERT_TRUE(net.ok()) << net.status();
  ASSERT_EQ(stats.rounds.size(), 3u);
  EXPECT_EQ(writer.snapshots_written(), 3);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), stats.rounds.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = ParseJson(lines[i]);
    ASSERT_TRUE(parsed.ok()) << lines[i];
    const JsonValue* round = parsed->Find("round");
    ASSERT_NE(round, nullptr);
    const telemetry::RoundTelemetry& expected = stats.rounds[i];
    EXPECT_EQ(round->Find("round")->AsInt64(), expected.round);
    // %.17g round-trips doubles bit-exactly.
    EXPECT_EQ(round->Find("seconds")->number, expected.seconds);
    EXPECT_EQ(round->Find("cpu_seconds")->number, expected.cpu_seconds);
    EXPECT_EQ(round->Find("mean_local_loss")->number,
              expected.mean_local_loss);
    EXPECT_EQ(round->Find("clients_trained")->AsInt64(),
              expected.clients_trained);
    EXPECT_GE(round->Find("cpu_seconds")->number, 0.0);
  }
}

}  // namespace
}  // namespace ctfl
