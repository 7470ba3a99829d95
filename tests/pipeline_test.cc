#include "ctfl/core/pipeline.h"

#include <numeric>

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "tabular_utility.h"

namespace ctfl {
namespace {

SyntheticSpec TwoRuleSpec() {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0, 1),
          FeatureSchema::Continuous("y", 0, 1),
      },
      "neg", "pos");
  spec.samplers = {
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  return spec;
}

CtflConfig FastConfig() {
  CtflConfig config;
  config.federated = false;
  config.central.epochs = 15;
  config.central.learning_rate = 0.05;
  config.net.logic_layers = {{12, 12}};
  config.net.seed = 3;
  config.tracer.tau_w = 0.85;
  return config;
}

TEST(PipelineTest, EndToEndProducesScoresForAllParticipants) {
  Rng rng(1);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 800, rng);
  const Dataset test = GenerateSynthetic(spec, 200, rng);
  Rng prng(2);
  const Federation fed =
      MakeFederation(PartitionSkewSample(all, 5, 0.8, prng));

  const CtflReport report = RunCtfl(fed, test, FastConfig()).value();
  EXPECT_EQ(report.micro_scores.size(), 5u);
  EXPECT_EQ(report.macro_scores.size(), 5u);
  EXPECT_GT(report.test_accuracy, 0.8);
  for (double s : report.micro_scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  // Group rationality over matched tests.
  const double micro_total = std::accumulate(
      report.micro_scores.begin(), report.micro_scores.end(), 0.0);
  EXPECT_NEAR(micro_total, report.trace.matched_accuracy, 1e-9);
  EXPECT_LE(report.trace.matched_accuracy,
            report.trace.global_accuracy + 1e-12);
}

TEST(PipelineTest, FederatedPathAlsoWorks) {
  Rng rng(3);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 600, rng);
  const Dataset test = GenerateSynthetic(spec, 150, rng);
  Rng prng(4);
  const Federation fed = MakeFederation(PartitionUniform(all, 3, prng));

  CtflConfig config = FastConfig();
  config.federated = true;
  config.fedavg.rounds = 3;
  config.fedavg.local_epochs = 3;
  config.fedavg.local.learning_rate = 0.05;
  const CtflReport report = RunCtfl(fed, test, config).value();
  EXPECT_GT(report.test_accuracy, 0.75);

  // RunCtfl must populate per-round telemetry on the federated path.
  const telemetry::RunTelemetry& run = report.telemetry;
  ASSERT_EQ(run.rounds.size(), 3u);
  EXPECT_TRUE(run.epochs.empty());
  double round_total = 0.0;
  for (size_t r = 0; r < run.rounds.size(); ++r) {
    EXPECT_EQ(run.rounds[r].round, static_cast<int>(r));
    EXPECT_GE(run.rounds[r].seconds, 0.0);
    EXPECT_EQ(run.rounds[r].clients_trained, 3);
    round_total += run.rounds[r].seconds;
  }
  // Round laps tile the training phase.
  EXPECT_LE(round_total, run.train_seconds + 1e-3);
  EXPECT_GT(run.grafting_steps, 0);

  // The uploads are a phase of their own, and the same forward pass gives
  // the deployed model's accuracy on the federation's training records.
  EXPECT_GT(run.upload_seconds, 0.0);
  EXPECT_GE(run.upload_cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run.total_seconds(), run.train_seconds +
                                            run.upload_seconds +
                                            run.trace_seconds +
                                            run.allocate_seconds);
  EXPECT_EQ(run.train_accuracy, report.model.Accuracy(MergeFederation(fed)));
  EXPECT_GT(run.train_accuracy, 0.75);
}

// Regression: a failed TrainFederated used to be swallowed (the pipeline
// kept scoring a half-trained model); the Status must surface through
// RunCtfl instead.
TEST(PipelineTest, FederatedTrainingFailurePropagatesStatus) {
  Rng rng(5);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 200, rng);
  const Dataset test = GenerateSynthetic(spec, 60, rng);
  Rng prng(6);
  const Federation fed = MakeFederation(PartitionUniform(all, 3, prng));

  CtflConfig config = FastConfig();
  config.federated = true;
  config.fedavg.rounds = 2;
  config.fedavg.retry_budget = -1;  // malformed: TrainFederated rejects it
  const Result<CtflReport> report = RunCtfl(fed, test, config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().ToString().find("retry_budget"),
            std::string::npos)
      << report.status();
}

TEST(PipelineTest, EmptyFederationIsRejectedNotDereferenced) {
  Rng rng(7);
  const Dataset test = GenerateSynthetic(TwoRuleSpec(), 60, rng);
  const Result<CtflReport> report = RunCtfl(Federation{}, test, FastConfig());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, RunCtflPopulatesTelemetryCentral) {
  Rng rng(9);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 400, rng);
  const Dataset test = GenerateSynthetic(spec, 100, rng);
  Rng prng(10);
  const Federation fed = MakeFederation(PartitionUniform(all, 3, prng));

  const CtflConfig config = FastConfig();
  const CtflReport report = RunCtfl(fed, test, config).value();
  const telemetry::RunTelemetry& run = report.telemetry;

  // Central path: per-epoch stats instead of rounds.
  EXPECT_TRUE(run.rounds.empty());
  ASSERT_EQ(run.epochs.size(),
            static_cast<size_t>(config.central.epochs));
  for (const telemetry::EpochTelemetry& epoch : run.epochs) {
    EXPECT_GE(epoch.seconds, 0.0);
    EXPECT_GE(epoch.loss, 0.0);
  }
  EXPECT_GT(run.grafting_steps, 0);
  EXPECT_GT(run.train_accuracy, 0.5);

  // Phase timings mirror the report's headline numbers.
  EXPECT_DOUBLE_EQ(run.train_seconds, report.train_seconds);
  EXPECT_DOUBLE_EQ(run.trace_seconds, report.trace_seconds);
  EXPECT_GE(run.allocate_seconds, 0.0);

  // Rule stats partition the model's rule coordinates.
  EXPECT_EQ(run.rules_total, report.model.num_rules());
  EXPECT_EQ(run.rules_kept + run.rules_pruned, run.rules_total);
  EXPECT_GT(run.rules_kept, 0);

  // Tracer stats: keys exist, every related hit came from a tau_w check,
  // and the uncovered count matches the trace.
  EXPECT_GT(run.trace_keys, 0);
  EXPECT_GE(run.tau_w_checks, run.related_records);
  EXPECT_GT(run.related_records, 0);
  EXPECT_EQ(run.trace_keys, report.trace.num_keys);
  EXPECT_EQ(run.uncovered_tests,
            static_cast<int64_t>(report.trace.uncovered_tests));
  EXPECT_NE(run.Summary().find("trace"), std::string::npos);
}

TEST(PipelineTest, SchemeAdapterMatchesPipeline) {
  Rng rng(5);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 600, rng);
  const Dataset test = GenerateSynthetic(spec, 150, rng);
  Rng prng(6);
  const Federation fed = MakeFederation(PartitionUniform(all, 4, prng));

  const CtflReport direct = RunCtfl(fed, test, FastConfig()).value();

  CtflScheme micro(&fed, &test, FastConfig(), CtflScheme::Variant::kMicro);
  // The utility is only consulted for the participant count.
  RetrainUtility::Config ucfg;
  ucfg.train.epochs = 1;
  RetrainUtility utility(&fed, &test, ucfg);
  const ContributionResult result = micro.Compute(utility).value();
  EXPECT_EQ(result.scheme, "CTFL-micro");
  ASSERT_EQ(result.scores.size(), direct.micro_scores.size());
  for (size_t p = 0; p < result.scores.size(); ++p) {
    EXPECT_NEAR(result.scores[p], direct.micro_scores[p], 1e-9);
  }
  EXPECT_EQ(result.coalitions_evaluated, 1);
  ASSERT_NE(micro.last_report(), nullptr);
}

TEST(PipelineTest, SchemeAdapterRejectsMismatchedUtility) {
  Rng rng(7);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 100, rng);
  const Dataset test = GenerateSynthetic(spec, 50, rng);
  Rng prng(8);
  const Federation fed = MakeFederation(PartitionUniform(all, 2, prng));

  CtflScheme micro(&fed, &test, FastConfig(), CtflScheme::Variant::kMicro);
  TabularUtility wrong(3, std::vector<double>(8, 0.0));
  EXPECT_FALSE(micro.Compute(wrong).ok());
}

}  // namespace
}  // namespace ctfl
