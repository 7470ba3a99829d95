#include "ctfl/nn/trainer.h"

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/data/split.h"
#include "ctfl/nn/matrix.h"

namespace ctfl {
namespace {

// A cleanly separable single-threshold task: x > 0.5 -> positive.
Dataset ThresholdDataset(size_t n, uint64_t seed) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "neg",
      "pos");
  spec.samplers = {FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  Rng rng(seed);
  return GenerateSynthetic(spec, n, rng);
}

// Conjunction task over discrete features: label = (a=yes AND b=yes).
Dataset ConjunctionDataset(size_t n, uint64_t seed) {
  const SchemaPtr schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Discrete("a", {"no", "yes"}),
          FeatureSchema::Discrete("b", {"no", "yes"}),
          FeatureSchema::Discrete("noise", {"u", "v", "w"}),
      },
      "neg", "pos");
  Dataset d(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    const int a = static_cast<int>(rng.UniformInt(2));
    const int b = static_cast<int>(rng.UniformInt(2));
    inst.values = {static_cast<double>(a), static_cast<double>(b),
                   static_cast<double>(rng.UniformInt(3))};
    inst.label = (a == 1 && b == 1) ? 1 : 0;
    d.AppendUnchecked(std::move(inst));
  }
  return d;
}

TEST(TrainerTest, LearnsThresholdTask) {
  const Dataset train = ThresholdDataset(800, 21);
  const Dataset test = ThresholdDataset(400, 22);
  LogicalNetConfig config;
  config.tau_d = 10;
  config.logic_layers = {{16, 16}};
  config.seed = 5;
  LogicalNet net(train.schema(), config);

  TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 64;
  tc.learning_rate = 0.05;
  const TrainReport report = TrainGrafted(net, train, tc);
  EXPECT_GT(report.steps, 0);
  EXPECT_GT(net.Accuracy(train), 0.9);
  EXPECT_GT(net.Accuracy(test), 0.9);
}

TEST(TrainerTest, LearnsConjunctionTask) {
  const Dataset train = ConjunctionDataset(1200, 31);
  const Dataset test = ConjunctionDataset(400, 32);
  LogicalNetConfig config;
  config.logic_layers = {{16, 16}};
  config.fan_in = 2;
  config.seed = 6;
  LogicalNet net(train.schema(), config);

  TrainConfig tc;
  tc.epochs = 40;
  tc.learning_rate = 0.05;
  TrainGrafted(net, train, tc);
  EXPECT_GT(net.Accuracy(test), 0.93);
}

TEST(TrainerTest, TrainingImprovesOverInitialModel) {
  const Dataset train = ThresholdDataset(600, 41);
  LogicalNetConfig config;
  config.logic_layers = {{8, 8}};
  config.seed = 7;
  LogicalNet net(train.schema(), config);
  const double before = net.Accuracy(train);
  TrainConfig tc;
  tc.epochs = 25;
  tc.learning_rate = 0.05;
  TrainGrafted(net, train, tc);
  EXPECT_GT(net.Accuracy(train), before);
}

TEST(TrainerTest, EmptyDatasetIsNoOp) {
  Dataset empty(ThresholdDataset(1, 1).schema());
  Dataset none(empty.schema());
  LogicalNet net(none.schema(), LogicalNetConfig{});
  const TrainReport report = TrainGrafted(net, none, TrainConfig{});
  EXPECT_EQ(report.steps, 0);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  const Dataset train = ThresholdDataset(300, 51);
  LogicalNetConfig config;
  config.logic_layers = {{8, 8}};
  config.seed = 9;
  TrainConfig tc;
  tc.epochs = 5;
  tc.seed = 13;

  LogicalNet a(train.schema(), config);
  LogicalNet b(train.schema(), config);
  TrainGrafted(a, train, tc);
  TrainGrafted(b, train, tc);
  EXPECT_EQ(a.GetParameters(), b.GetParameters());
}

TEST(TrainerTest, LossTrajectoryIdenticalAcrossThreadCounts) {
  // The sharded kernels promise bit-identical results, so the whole loss
  // trajectory — not just the endpoint — must match between a serial and a
  // heavily parallel run with the same seed.
  const Dataset train = ThresholdDataset(400, 55);
  LogicalNetConfig config;
  config.logic_layers = {{8, 8}};
  config.seed = 9;

  // Force even these tiny matrices onto the sharded kernels.
  SetMatrixParallelGrain(1);

  TrainConfig tc;
  tc.epochs = 6;
  tc.seed = 13;
  tc.learning_rate = 0.05;

  tc.num_threads = 1;
  LogicalNet serial(train.schema(), config);
  const TrainReport serial_report = TrainGrafted(serial, train, tc);

  tc.num_threads = 8;
  LogicalNet parallel(train.schema(), config);
  const TrainReport parallel_report = TrainGrafted(parallel, train, tc);

  // Restore process defaults for the other tests in this binary.
  SetMatrixParallelism(0);
  SetMatrixParallelGrain(size_t{1} << 16);

  EXPECT_EQ(serial.GetParameters(), parallel.GetParameters());
  EXPECT_EQ(serial_report.final_loss, parallel_report.final_loss);
  EXPECT_EQ(serial.Accuracy(train), parallel.Accuracy(train));
  EXPECT_EQ(serial_report.steps, parallel_report.steps);
  ASSERT_EQ(serial_report.epoch_stats.size(),
            parallel_report.epoch_stats.size());
  for (size_t e = 0; e < serial_report.epoch_stats.size(); ++e) {
    SCOPED_TRACE(e);
    EXPECT_EQ(serial_report.epoch_stats[e].loss,
              parallel_report.epoch_stats[e].loss);
  }
}

TEST(TrainerTest, SgdPathAlsoLearns) {
  const Dataset train = ThresholdDataset(800, 61);
  LogicalNetConfig config;
  config.logic_layers = {{16, 16}};
  config.seed = 10;
  LogicalNet net(train.schema(), config);
  TrainConfig tc;
  tc.use_adam = false;
  tc.learning_rate = 0.5;
  tc.epochs = 40;
  TrainGrafted(net, train, tc);
  EXPECT_GT(net.Accuracy(train), 0.85);
}

TEST(TrainerTest, LearnsTicTacToeReasonably) {
  const Dataset full = GenerateTicTacToe();
  Rng rng(71);
  const TrainTestSplit split = StratifiedSplit(full, 0.2, rng);
  LogicalNetConfig config;
  config.logic_layers = {{64, 64}};
  config.fan_in = 3;
  config.seed = 11;
  LogicalNet net(split.train.schema(), config);
  TrainConfig tc;
  tc.epochs = 60;
  tc.learning_rate = 0.05;
  TrainGrafted(net, split.train, tc);
  // Paper-grade models reach high 90s; we only require clearly-learned.
  EXPECT_GT(net.Accuracy(split.test), 0.8);
}

}  // namespace
}  // namespace ctfl
