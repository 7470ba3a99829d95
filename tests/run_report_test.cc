#include "ctfl/telemetry/run_report.h"

#include <thread>

#include <gtest/gtest.h>

#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/data/split.h"
#include "ctfl/fl/partition.h"
#include "ctfl/util/build_info.h"
#include "ctfl/util/rng.h"
#include "run_report_reader.h"
#include "test_paths.h"

namespace ctfl {
namespace {

using telemetry::RunReport;

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

RunReport MakeFixtureReport() {
  RunReport report;
  report.schema_version = 1;
  report.run_fingerprint = 0xdeadbeefcafef00dULL;
  report.config_digest = 0x0123456789abcdefULL;
  report.schema_fingerprint = 0xffffffffffffffffULL;
  report.failure_plan_fingerprint = 0x1ULL;
  report.build_type = "release";
  report.federated = true;
  report.num_participants = 4;
  report.train_records = 766;
  report.test_records = 192;
  report.test_accuracy = 0.971234567890123456;  // not representable: rounds

  telemetry::RunTelemetry& t = report.telemetry;
  t.train_seconds = 1.0 / 3.0;
  t.train_cpu_seconds = 0.1;  // 0.1 has no exact binary form: good probe
  t.upload_seconds = 0.03;
  t.upload_cpu_seconds = 0.07;
  t.trace_seconds = 2.5e-4;
  t.trace_cpu_seconds = 2.4e-4;
  t.allocate_seconds = 1e-6;
  t.allocate_cpu_seconds = 9.9e-7;
  t.grafting_steps = 1234;
  t.train_accuracy = 0.875;
  t.clients_dropped = 3;
  t.retries = 5;
  t.rounds_degraded = 2;
  t.rounds.push_back({0, 0.5, 0.9, 4, 0, 0, false, 0.45});
  t.rounds.push_back({1, 0.25, 0.8, 3, 1, 2, true, 0.2});
  t.epochs.push_back({0, 0.125, 0.7});
  t.rules_total = 96;
  t.rules_kept = 90;
  t.rules_pruned = 6;
  t.trace_keys = 100;
  t.tau_w_checks = 76600;
  t.related_records = 4321;
  t.uncovered_tests = 7;
  t.records_scanned = 50000;
  t.blocks_pruned = 400;
  t.max_rss_kb = 123456;
  t.voluntary_ctx_switches = 42;
  t.involuntary_ctx_switches = 17;
  return report;
}

void ExpectReportsEqual(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.schema_version, b.schema_version);
  EXPECT_EQ(a.run_fingerprint, b.run_fingerprint);
  EXPECT_EQ(a.config_digest, b.config_digest);
  EXPECT_EQ(a.schema_fingerprint, b.schema_fingerprint);
  EXPECT_EQ(a.failure_plan_fingerprint, b.failure_plan_fingerprint);
  EXPECT_EQ(a.build_type, b.build_type);
  EXPECT_EQ(a.federated, b.federated);
  EXPECT_EQ(a.num_participants, b.num_participants);
  EXPECT_EQ(a.train_records, b.train_records);
  EXPECT_EQ(a.test_records, b.test_records);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);  // bit-exact

  const telemetry::RunTelemetry& x = a.telemetry;
  const telemetry::RunTelemetry& y = b.telemetry;
  EXPECT_EQ(x.train_seconds, y.train_seconds);
  EXPECT_EQ(x.train_cpu_seconds, y.train_cpu_seconds);
  EXPECT_EQ(x.upload_seconds, y.upload_seconds);
  EXPECT_EQ(x.upload_cpu_seconds, y.upload_cpu_seconds);
  EXPECT_EQ(x.trace_seconds, y.trace_seconds);
  EXPECT_EQ(x.trace_cpu_seconds, y.trace_cpu_seconds);
  EXPECT_EQ(x.allocate_seconds, y.allocate_seconds);
  EXPECT_EQ(x.allocate_cpu_seconds, y.allocate_cpu_seconds);
  EXPECT_EQ(x.grafting_steps, y.grafting_steps);
  EXPECT_EQ(x.train_accuracy, y.train_accuracy);
  EXPECT_EQ(x.clients_dropped, y.clients_dropped);
  EXPECT_EQ(x.retries, y.retries);
  EXPECT_EQ(x.rounds_degraded, y.rounds_degraded);
  ASSERT_EQ(x.rounds.size(), y.rounds.size());
  for (size_t i = 0; i < x.rounds.size(); ++i) {
    EXPECT_EQ(x.rounds[i].round, y.rounds[i].round);
    EXPECT_EQ(x.rounds[i].seconds, y.rounds[i].seconds);
    EXPECT_EQ(x.rounds[i].cpu_seconds, y.rounds[i].cpu_seconds);
    EXPECT_EQ(x.rounds[i].mean_local_loss, y.rounds[i].mean_local_loss);
    EXPECT_EQ(x.rounds[i].clients_trained, y.rounds[i].clients_trained);
    EXPECT_EQ(x.rounds[i].clients_dropped, y.rounds[i].clients_dropped);
    EXPECT_EQ(x.rounds[i].retries, y.rounds[i].retries);
    EXPECT_EQ(x.rounds[i].degraded, y.rounds[i].degraded);
  }
  ASSERT_EQ(x.epochs.size(), y.epochs.size());
  for (size_t i = 0; i < x.epochs.size(); ++i) {
    EXPECT_EQ(x.epochs[i].epoch, y.epochs[i].epoch);
    EXPECT_EQ(x.epochs[i].seconds, y.epochs[i].seconds);
    EXPECT_EQ(x.epochs[i].loss, y.epochs[i].loss);
  }
  EXPECT_EQ(x.rules_total, y.rules_total);
  EXPECT_EQ(x.rules_kept, y.rules_kept);
  EXPECT_EQ(x.rules_pruned, y.rules_pruned);
  EXPECT_EQ(x.trace_keys, y.trace_keys);
  EXPECT_EQ(x.tau_w_checks, y.tau_w_checks);
  EXPECT_EQ(x.related_records, y.related_records);
  EXPECT_EQ(x.uncovered_tests, y.uncovered_tests);
  EXPECT_EQ(x.records_scanned, y.records_scanned);
  EXPECT_EQ(x.blocks_pruned, y.blocks_pruned);
  EXPECT_EQ(x.max_rss_kb, y.max_rss_kb);
  EXPECT_EQ(x.voluntary_ctx_switches, y.voluntary_ctx_switches);
  EXPECT_EQ(x.involuntary_ctx_switches, y.involuntary_ctx_switches);
}

TEST(RunReportTest, JsonRoundTripIsBitExact) {
  const RunReport original = MakeFixtureReport();
  const std::string json = telemetry::RunReportJson(original);
  auto parsed = telemetry::ParseRunReportJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << json;
  ExpectReportsEqual(original, *parsed);
  // And the round trip is a fixed point: re-serializing the parsed
  // report reproduces the document byte-for-byte.
  EXPECT_EQ(telemetry::RunReportJson(*parsed), json);
}

TEST(RunReportTest, FileRoundTrip) {
  const RunReport original = MakeFixtureReport();
  const std::string path = TempPath("run_report_roundtrip.json");
  ASSERT_TRUE(telemetry::WriteRunReport(original, path).ok());
  auto parsed = telemetry::ReadRunReport(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectReportsEqual(original, *parsed);
}

TEST(RunReportTest, UnknownFieldsIgnoredMissingKeepDefaults) {
  // Forward compatibility: a newer writer's extra fields are skipped and
  // absent sections leave defaults in place.
  auto parsed = telemetry::ParseRunReportJson(
      R"({"schema_version": 2, "future_section": {"x": [1, 2]},
          "run": {"fingerprint": "0x00000000000000ff", "novel": true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->schema_version, 2);
  EXPECT_EQ(parsed->run_fingerprint, 0xffu);
  EXPECT_EQ(parsed->config_digest, 0u);
  EXPECT_TRUE(parsed->federated);  // default survives
  EXPECT_EQ(parsed->telemetry.rounds.size(), 0u);
}

TEST(RunReportTest, ReportWithoutUploadPhaseStillParses) {
  // Reports written before the upload phase existed carry only train,
  // trace and allocate; their upload time reads as zero.
  auto parsed = telemetry::ParseRunReportJson(
      R"({"schema_version": 1, "phases": {
            "train": {"wall_seconds": 2.5, "cpu_seconds": 9.0},
            "trace": {"wall_seconds": 0.5, "cpu_seconds": 0.75},
            "allocate": {"wall_seconds": 0.25, "cpu_seconds": 0.25}}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const telemetry::RunTelemetry& t = parsed->telemetry;
  EXPECT_EQ(t.upload_seconds, 0.0);
  EXPECT_EQ(t.upload_cpu_seconds, 0.0);
  EXPECT_EQ(t.trace_seconds, 0.5);
  EXPECT_EQ(t.total_seconds(), 3.25);
  EXPECT_EQ(t.total_cpu_seconds(), 10.0);
}

TEST(RunReportTest, RejectsNonObjectAndMalformed) {
  EXPECT_FALSE(telemetry::ParseRunReportJson("[]").ok());
  EXPECT_FALSE(telemetry::ParseRunReportJson("{").ok());
  EXPECT_FALSE(telemetry::ReadRunReport("/no/such/report.json").ok());
}

// ---------------------------------------------------------------------------
// MakeRunReport over a real pipeline run.
// ---------------------------------------------------------------------------

struct PipelineFixture {
  Federation fed;
  Dataset test;
  CtflConfig config;

  PipelineFixture() : test(TicTacToeSchema()) {
    Dataset data = GenerateTicTacToe();
    Rng rng(5);
    auto split = StratifiedSplit(data, 0.25, rng);
    Rng prng(7);
    fed = MakeFederation(PartitionSkewSample(split.train, 3, 0.8, prng));
    test = std::move(split.test);
    config.federated = true;
    config.fedavg.rounds = 2;
    config.fedavg.local_epochs = 1;
    config.net.logic_layers = {{8, 8}};
    config.num_threads = 1;
  }
};

TEST(RunReportTest, MakeRunReportCarriesIdentityAndShape) {
  PipelineFixture fx;
  const CtflReport report = RunCtfl(fx.fed, fx.test, fx.config).value();
  const RunReport run_report =
      MakeRunReport(report, fx.config, fx.fed, fx.test);

  EXPECT_EQ(run_report.build_type, BuildTypeName());
  EXPECT_TRUE(run_report.federated);
  EXPECT_EQ(run_report.num_participants, 3);
  int64_t train_records = 0;
  for (const Participant& p : fx.fed) {
    train_records += static_cast<int64_t>(p.data.size());
  }
  EXPECT_EQ(run_report.train_records, train_records);
  EXPECT_EQ(run_report.test_records,
            static_cast<int64_t>(fx.test.size()));
  EXPECT_EQ(run_report.test_accuracy, report.test_accuracy);
  EXPECT_NE(run_report.config_digest, 0u);
  EXPECT_NE(run_report.schema_fingerprint, 0u);
  EXPECT_EQ(run_report.failure_plan_fingerprint, 0u);  // fault-free
  EXPECT_NE(run_report.run_fingerprint, 0u);

  // Telemetry rides along wholesale, kernel counters included.
  EXPECT_EQ(run_report.telemetry.rounds.size(), 2u);
  EXPECT_GT(run_report.telemetry.tau_w_checks, 0);
  EXPECT_EQ(run_report.telemetry.tau_w_checks,
            report.telemetry.tau_w_checks);

  // And the full report round-trips bit-exactly through JSON.
  auto parsed =
      telemetry::ParseRunReportJson(telemetry::RunReportJson(run_report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectReportsEqual(run_report, *parsed);
}

TEST(RunReportTest, PhaseCpuWithinWallTimesThreadBudget) {
  PipelineFixture fx;
  const CtflReport report = RunCtfl(fx.fed, fx.test, fx.config).value();
  const telemetry::RunTelemetry& t = report.telemetry;
  // The process-CPU clock sums every thread, so a phase's CPU time is
  // bounded by wall * total live threads. Use hardware concurrency as
  // the generous budget (the run itself was serial) plus scheduling
  // slack for clock granularity.
  const double budget = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
  const double slack = 0.05;
  EXPECT_LE(t.train_cpu_seconds, t.train_seconds * budget + slack);
  EXPECT_LE(t.upload_cpu_seconds, t.upload_seconds * budget + slack);
  EXPECT_LE(t.trace_cpu_seconds, t.trace_seconds * budget + slack);
  EXPECT_LE(t.allocate_cpu_seconds, t.allocate_seconds * budget + slack);
  EXPECT_GE(t.train_cpu_seconds, 0.0);
  EXPECT_GE(t.upload_cpu_seconds, 0.0);
  EXPECT_GE(t.trace_cpu_seconds, 0.0);
  EXPECT_GE(t.allocate_cpu_seconds, 0.0);
  // Training dominates this workload; its CPU time must be visible.
  EXPECT_GT(t.train_cpu_seconds, 0.0);
  EXPECT_GE(t.total_cpu_seconds(),
            t.train_cpu_seconds + t.trace_cpu_seconds);
  // Per-round CPU tiles the training phase (up to per-lap granularity).
  double rounds_cpu = 0.0;
  for (const auto& round : t.rounds) rounds_cpu += round.cpu_seconds;
  EXPECT_LE(rounds_cpu, t.train_cpu_seconds + slack);
  EXPECT_GE(t.max_rss_kb, 0);
  EXPECT_GE(t.voluntary_ctx_switches, 0);
  EXPECT_GE(t.involuntary_ctx_switches, 0);
}

TEST(RunReportTest, ConfigDigestSemanticsNotThreads) {
  PipelineFixture fx;
  const uint64_t base = CtflConfigDigest(fx.config);

  // Thread knobs are explicitly excluded: the same semantic run at any
  // parallelism shares a digest (results are bit-identical, DESIGN.md §9).
  CtflConfig threads = fx.config;
  threads.num_threads = 8;
  threads.fedavg.num_threads = 4;
  threads.tracer.num_threads = 2;
  EXPECT_EQ(CtflConfigDigest(threads), base);

  // So are the trace kernel's ISA tier and shard threads: every tier at
  // every count is a bit-identical implementation of the same semantics
  // (DESIGN.md §10), and the replay harness's isa cells compare run
  // fingerprints across them.
  CtflConfig kernel = fx.config;
  kernel.tracer.isa = TraceIsa::kScalar;
  kernel.tracer.trace_threads = 8;
  EXPECT_EQ(CtflConfigDigest(kernel), base);

  // Semantic knobs do move the digest.
  CtflConfig tau = fx.config;
  tau.tracer.tau_w = 0.8;
  EXPECT_NE(CtflConfigDigest(tau), base);

  CtflConfig seed = fx.config;
  seed.net.seed = 43;
  EXPECT_NE(CtflConfigDigest(seed), base);

  CtflConfig rounds = fx.config;
  rounds.fedavg.rounds = 3;
  EXPECT_NE(CtflConfigDigest(rounds), base);

  CtflConfig central = fx.config;
  central.federated = false;
  EXPECT_NE(CtflConfigDigest(central), base);

  // The run fingerprint additionally moves with the data shape.
  const CtflReport report = RunCtfl(fx.fed, fx.test, fx.config).value();
  const RunReport a = MakeRunReport(report, fx.config, fx.fed, fx.test);
  const RunReport b = MakeRunReport(report, fx.config, fx.fed, fx.fed[0].data);
  EXPECT_NE(a.run_fingerprint, b.run_fingerprint);
  const RunReport c = MakeRunReport(report, fx.config, fx.fed, fx.test);
  EXPECT_EQ(a.run_fingerprint, c.run_fingerprint);
}

}  // namespace
}  // namespace ctfl
