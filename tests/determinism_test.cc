// Differential determinism suite for the parallel training engine
// (DESIGN.md §9): `num_threads = 1` and `num_threads = N` must produce
// bit-identical global parameters, every TraceResult field (related
// counts, per-record match counts, the §IV-B rule frequencies), and Eq. 5/6
// micro/macro contribution scores end-to-end — with and without secure
// aggregation and DP perturbation. Contribution scores that depend on the
// worker schedule would be worthless as incentives (cf. the fragility
// critique of Pejó et al.), so these tests are the PR's contract.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/fedavg.h"
#include "ctfl/fl/partition.h"
#include "ctfl/nn/matrix.h"
#include "isa_tiers.h"
#include "trace_compare.h"

namespace ctfl {
namespace {

// Two-feature task with a conjunctive rule so the logic layers carry real
// signal: label = (x > 0.5 AND a = yes).
Dataset TwoFeatureDataset(size_t n, uint64_t seed) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1),
                               FeatureSchema::Discrete("a", {"no", "yes"})},
      "neg", "pos");
  spec.samplers = {
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0, {0.5, 0.5}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}, {1, GtPredicate::Op::kGt, 0.5}},
                 1,
                 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  Rng rng(seed);
  return GenerateSynthetic(spec, n, rng);
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force even the tiny test matrices onto the sharded kernel path so
    // the differential legs actually exercise parallel code.
    SetMatrixParallelGrain(1);
  }
  void TearDown() override {
    SetMatrixParallelism(0);
    SetMatrixParallelGrain(size_t{1} << 16);
  }
};

CtflConfig BaseConfig() {
  CtflConfig config;
  config.federated = true;
  config.net.logic_layers = {{8, 8}};
  config.net.tau_d = 6;
  config.net.seed = 11;
  config.fedavg.rounds = 2;
  config.fedavg.local_epochs = 2;
  config.fedavg.local.learning_rate = 0.05;
  config.tracer.tau_w = 0.9;
  return config;
}

struct PipelineSnapshot {
  std::vector<double> params;
  std::vector<double> micro;
  std::vector<double> macro;
  TraceResult trace;
};

PipelineSnapshot RunPipeline(const Federation& fed, const Dataset& test,
                             CtflConfig config, int num_threads) {
  config.num_threads = num_threads;
  CtflReport report = RunCtfl(fed, test, config).value();
  PipelineSnapshot snap;
  snap.params = report.model.GetParameters();
  snap.micro = report.micro_scores;
  snap.macro = report.macro_scores;
  snap.trace = std::move(report.trace);
  return snap;
}

void ExpectSnapshotsIdentical(const PipelineSnapshot& base,
                              const PipelineSnapshot& other,
                              const char* label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(BitIdentical(base.params, other.params)) << "global parameters";
  EXPECT_TRUE(BitIdentical(base.micro, other.micro)) << "micro scores";
  EXPECT_TRUE(BitIdentical(base.macro, other.macro)) << "macro scores";
  ExpectTracesIdentical(base.trace, other.trace);
}

/// Runs the pipeline serially and at 2, 4 and 8 threads; every output must
/// match the serial run bit for bit. Returns the serial run.
PipelineSnapshot ExpectSameAtEveryThreadCount(const Federation& fed,
                                              const Dataset& test,
                                              const CtflConfig& config) {
  PipelineSnapshot base = RunPipeline(fed, test, config, 1);
  for (const int threads : {2, 4, 8}) {
    const std::string label = "threads=" + std::to_string(threads);
    ExpectSnapshotsIdentical(base, RunPipeline(fed, test, config, threads),
                             label.c_str());
  }
  return base;
}

TEST_F(DeterminismTest, RunFedAvgBitIdenticalAcrossThreadCounts) {
  const Dataset all = TwoFeatureDataset(400, 7);
  Rng rng(3);
  const std::vector<Dataset> clients = PartitionUniform(all, 5, rng);

  LogicalNetConfig net_config;
  net_config.logic_layers = {{8, 8}};
  net_config.seed = 4;

  FedAvgConfig config;
  config.rounds = 3;
  config.local_epochs = 2;
  config.local.learning_rate = 0.05;

  std::vector<double> baseline;
  std::vector<telemetry::RoundTelemetry> baseline_rounds;
  for (const int threads : {1, 2, 8}) {
    config.num_threads = threads;
    config.local.num_threads = threads;
    FedAvgStats stats;
    const LogicalNet net =
        TrainFederated(all.schema(), net_config, clients, config, &stats)
            .value();
    const std::vector<double> params = net.GetParameters();
    ASSERT_EQ(stats.rounds.size(), 3u);
    if (threads == 1) {
      baseline = params;
      baseline_rounds = stats.rounds;
      continue;
    }
    SCOPED_TRACE(threads);
    EXPECT_TRUE(BitIdentical(baseline, params));
    // Round stats (loss fold runs in the ordered commit) match too.
    for (size_t r = 0; r < stats.rounds.size(); ++r) {
      EXPECT_EQ(stats.rounds[r].mean_local_loss,
                baseline_rounds[r].mean_local_loss);
      EXPECT_EQ(stats.rounds[r].clients_trained,
                baseline_rounds[r].clients_trained);
    }
    EXPECT_EQ(stats.grafting_steps, stats.grafting_steps);
  }
}

TEST_F(DeterminismTest, RunFedAvgBitIdenticalWithSecureAggregation) {
  const Dataset all = TwoFeatureDataset(300, 17);
  Rng rng(5);
  const std::vector<Dataset> clients = PartitionUniform(all, 4, rng);

  LogicalNetConfig net_config;
  net_config.logic_layers = {{8, 8}};
  net_config.seed = 6;

  FedAvgConfig config;
  config.rounds = 2;
  config.local_epochs = 2;
  config.local.learning_rate = 0.05;
  config.secure_aggregation = true;

  std::vector<double> baseline;
  for (const int threads : {1, 2, 8}) {
    config.num_threads = threads;
    config.local.num_threads = threads;
    const LogicalNet net =
        TrainFederated(all.schema(), net_config, clients, config).value();
    if (threads == 1) {
      baseline = net.GetParameters();
    } else {
      SCOPED_TRACE(threads);
      // Masking consumes updates in client-index order; the parallel
      // fan-out must not perturb a single bit of the masked sum.
      EXPECT_TRUE(BitIdentical(baseline, net.GetParameters()));
    }
  }
}

TEST_F(DeterminismTest, FaultyRunFedAvgBitIdenticalAcrossThreadCounts) {
  // DESIGN.md §11: a FailurePlan is a pure function of (seed, round,
  // client, attempt), so injected faults must not break the thread-count
  // determinism contract — dropouts, retries, and quarantines land on the
  // same clients no matter how the fan-out is scheduled.
  const Dataset all = TwoFeatureDataset(400, 57);
  Rng rng(19);
  const std::vector<Dataset> clients = PartitionUniform(all, 5, rng);

  LogicalNetConfig net_config;
  net_config.logic_layers = {{8, 8}};
  net_config.seed = 21;

  FedAvgConfig config;
  config.rounds = 4;
  config.local_epochs = 2;
  config.local.learning_rate = 0.05;
  config.secure_aggregation = true;
  config.failure =
      FailurePlan::Parse(
          "dropout=0.25,straggler=0.15,corrupt=0.1,mismatch=0.1,seed=77")
          .value();
  config.retry_budget = 2;

  std::vector<double> baseline;
  FedAvgStats baseline_stats;
  for (const int threads : {1, 2, 8}) {
    config.num_threads = threads;
    config.local.num_threads = threads;
    FedAvgStats stats;
    const LogicalNet net =
        TrainFederated(all.schema(), net_config, clients, config, &stats)
            .value();
    if (threads == 1) {
      baseline = net.GetParameters();
      baseline_stats = stats;
      // The plan must actually bite, or the test is vacuous.
      ASSERT_GT(stats.clients_dropped, 0);
      continue;
    }
    SCOPED_TRACE(threads);
    EXPECT_TRUE(BitIdentical(baseline, net.GetParameters()));
    EXPECT_EQ(stats.clients_dropped, baseline_stats.clients_dropped);
    EXPECT_EQ(stats.retries, baseline_stats.retries);
    EXPECT_EQ(stats.rounds_degraded, baseline_stats.rounds_degraded);
    ASSERT_EQ(stats.rounds.size(), baseline_stats.rounds.size());
    for (size_t r = 0; r < stats.rounds.size(); ++r) {
      EXPECT_EQ(stats.rounds[r].clients_dropped,
                baseline_stats.rounds[r].clients_dropped);
      EXPECT_EQ(stats.rounds[r].mean_local_loss,
                baseline_stats.rounds[r].mean_local_loss);
    }
  }
}

TEST_F(DeterminismTest, FaultyPipelineScoresBitIdenticalAcrossThreadCounts) {
  // End-to-end: contribution scores computed from a degraded federation
  // are still a pure function of (seed, plan) — the incentive payments
  // cannot depend on which worker thread observed the fault.
  const Dataset all = TwoFeatureDataset(360, 61);
  const Dataset test = TwoFeatureDataset(120, 67);
  Rng rng(23);
  const Federation fed = MakeFederation(PartitionUniform(all, 4, rng));

  CtflConfig config = BaseConfig();
  config.fedavg.rounds = 3;
  config.fedavg.secure_aggregation = true;
  config.fedavg.failure =
      FailurePlan::Parse("dropout=0.3,straggler=0.2,seed=41").value();
  config.fedavg.retry_budget = 1;

  const PipelineSnapshot base = ExpectSameAtEveryThreadCount(fed, test, config);
  EXPECT_GT(base.trace.num_keys, 0);
}

TEST_F(DeterminismTest, FullPipelineBitIdenticalAcrossThreadCounts) {
  const Dataset all = TwoFeatureDataset(360, 23);
  const Dataset test = TwoFeatureDataset(120, 29);
  Rng rng(9);
  const Federation fed = MakeFederation(PartitionUniform(all, 4, rng));

  const CtflConfig config = BaseConfig();
  const PipelineSnapshot base = ExpectSameAtEveryThreadCount(fed, test, config);
  // A federation with data must actually produce tracing work, or the
  // equalities above would be vacuous.
  EXPECT_GT(base.trace.num_keys, 0);
  EXPECT_GT(base.trace.tau_w_checks, 0);
  EXPECT_GT(base.trace.related_records, 0);
}

TEST_F(DeterminismTest, SkewedFederationBitIdenticalAcrossThreadCounts) {
  // One client holds 70% of the records, so it is still training after the
  // others finish, and the threads that ran them help its grafted steps
  // through the sharded layer-0 kernels and Adam. The layer is wide enough
  // for several node chunks and more than one Adam range.
  const Dataset all = TwoFeatureDataset(1000, 71);
  const Dataset test = TwoFeatureDataset(150, 73);
  std::vector<Dataset> clients(4, Dataset(all.schema()));
  for (size_t i = 0; i < all.size(); ++i) {
    const size_t c = i < 700 ? 0 : 1 + (i - 700) / 100;
    clients[c].AppendUnchecked(all.instance(i));
  }
  const Federation fed = MakeFederation(clients);
  CtflConfig config = BaseConfig();
  config.net.tau_d = 12;
  config.net.logic_layers = {{24, 20}};
  const PipelineSnapshot base = ExpectSameAtEveryThreadCount(fed, test, config);
  EXPECT_GT(base.params.size(), 1024u);
  EXPECT_GT(base.trace.related_records, 0);
}

/// FNV-1a over the bit patterns of `values`, continuing from `h`.
uint64_t Fnv1a(uint64_t h, const std::vector<double>& values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_F(DeterminismTest, PipelineDigestMatchesPinnedValue) {
  // The legs above compare runs with each other, so a kernel that is
  // deterministic but computes different values would pass them. This
  // pins the trained parameters and both score vectors of one small run
  // (two logic layers, widths no kernel chunk divides) to their digest
  // under the oracle's arithmetic (logic_oracle.h: the scalar per-element
  // loops, and layer 0's grouped forward and weight gradient, DESIGN.md
  // §16.3), with glibc's libm on x86-64, at every SIMD tier the machine
  // supports (the tier picks the training step's units too). Only a change
  // meant to alter training may re-pin it.
  const Dataset all = TwoFeatureDataset(360, 53);
  const Dataset test = TwoFeatureDataset(120, 59);
  Rng rng(19);
  const Federation fed = MakeFederation(PartitionUniform(all, 4, rng));
  CtflConfig config = BaseConfig();
  config.net.logic_layers = {{13, 11}, {6, 5}};
  ForEachTier([&](TraceIsa isa) {
    config.tracer.isa = isa;
    const PipelineSnapshot snap = RunPipeline(fed, test, config, 4);
    ASSERT_GT(snap.trace.num_keys, 0);
    uint64_t digest = 0xcbf29ce484222325ULL;
    digest = Fnv1a(digest, snap.params);
    digest = Fnv1a(digest, snap.micro);
    digest = Fnv1a(digest, snap.macro);
    EXPECT_EQ(digest, 0x18cc34550a3ab094ULL)
        << std::hex << "digest 0x" << digest;
  });
}

TEST_F(DeterminismTest, AlignedPipelineDigestMatchesPinnedValue) {
  // The run above trains a 14-input layer 0, whose rows fit in one packed
  // word and make three groups (DESIGN.md §16.2). This pins a run at
  // fed-score's shape instead: adult's 157 encoded inputs (three words a
  // row, 20 groups, some across a word),
  // layer 0 of 48 + 48 nodes (six full chunks of each kind), 64-row
  // batches and 4 threads, at every tier. Only a change meant to alter
  // training may re-pin it.
  const Dataset all = MakeBenchmark("adult", 2000, 61).value();
  const Dataset test = MakeBenchmark("adult", 200, 67).value();
  Rng rng(23);
  const Federation fed = MakeFederation(PartitionUniform(all, 4, rng));
  CtflConfig config = BaseConfig();
  config.net.tau_d = 10;
  config.net.logic_layers = {{48, 48}};
  config.fedavg.rounds = 3;
  config.fedavg.local.batch_size = 64;
  ForEachTier([&](TraceIsa isa) {
    config.tracer.isa = isa;
    config.num_threads = 4;
    CtflReport report = RunCtfl(fed, test, config).value();
    ASSERT_EQ(report.model.encoded_size(), 157);
    ASSERT_GT(report.trace.num_keys, 0);
    uint64_t digest = 0xcbf29ce484222325ULL;
    digest = Fnv1a(digest, report.model.GetParameters());
    digest = Fnv1a(digest, report.micro_scores);
    digest = Fnv1a(digest, report.macro_scores);
    EXPECT_EQ(digest, 0xd44c187ef45e5bb8ULL)
        << std::hex << "digest 0x" << digest;
  });
}

TEST_F(DeterminismTest, FullPipelineBitIdenticalWithSecureAggAndDp) {
  const Dataset all = TwoFeatureDataset(360, 33);
  const Dataset test = TwoFeatureDataset(120, 39);
  Rng rng(13);
  const Federation fed = MakeFederation(PartitionUniform(all, 4, rng));

  CtflConfig config = BaseConfig();
  config.fedavg.secure_aggregation = true;
  config.tracer.dp_epsilon = 2.0;  // randomized-response perturbation on
  const PipelineSnapshot base = ExpectSameAtEveryThreadCount(fed, test, config);
  EXPECT_GT(base.trace.num_keys, 0);
}

TEST_F(DeterminismTest, CentralPathBitIdenticalAcrossThreadCounts) {
  const Dataset all = TwoFeatureDataset(360, 43);
  const Dataset test = TwoFeatureDataset(120, 49);
  Rng rng(17);
  const Federation fed = MakeFederation(PartitionUniform(all, 3, rng));

  CtflConfig config = BaseConfig();
  config.federated = false;
  config.central.epochs = 4;
  config.central.learning_rate = 0.05;
  ExpectSameAtEveryThreadCount(fed, test, config);
}

}  // namespace
}  // namespace ctfl
