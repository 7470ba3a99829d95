#include "ctfl/fl/utility.h"

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "tabular_utility.h"

namespace ctfl {
namespace {

TEST(CoalitionMaskTest, BuildsBitmask) {
  EXPECT_EQ(CoalitionMask({}), 0u);
  EXPECT_EQ(CoalitionMask({0}), 1u);
  EXPECT_EQ(CoalitionMask({1, 3}), 0b1010u);
  EXPECT_EQ(CoalitionMask({3, 1}), 0b1010u);  // order-insensitive
}

TEST(TabularUtilityTest, LooksUpValuesAndCountsDistinctEvaluations) {
  // 2 participants: v({})=0, v({0})=1, v({1})=2, v({0,1})=4.
  TabularUtility u(2, {0.0, 1.0, 2.0, 4.0});
  EXPECT_EQ(u.num_participants(), 2);
  EXPECT_DOUBLE_EQ(u.Value({}), 0.0);
  EXPECT_DOUBLE_EQ(u.Value({0}), 1.0);
  EXPECT_DOUBLE_EQ(u.Value({1}), 2.0);
  EXPECT_DOUBLE_EQ(u.Value({0, 1}), 4.0);
  EXPECT_EQ(u.evaluations(), 3);  // empty coalition is free
  u.Value({0});
  EXPECT_EQ(u.evaluations(), 3);  // repeat is cached
}

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

class RetrainUtilityTest : public ::testing::Test {
 protected:
  RetrainUtilityTest() : test_(ThresholdDataset(300, 2)) {
    const Dataset all = ThresholdDataset(600, 1);
    Rng rng(3);
    federation_ = MakeFederation(PartitionUniform(all, 3, rng));
    config_.net.logic_layers = {{8, 8}};
    config_.train.epochs = 8;
    config_.train.learning_rate = 0.05;
  }

  Federation federation_;
  Dataset test_;
  RetrainUtility::Config config_;
};

TEST_F(RetrainUtilityTest, EmptyCoalitionIsMajorityBaseline) {
  RetrainUtility u(&federation_, &test_, config_);
  const auto counts = test_.ClassCounts();
  const double majority =
      static_cast<double>(std::max(counts[0], counts[1])) / test_.size();
  EXPECT_DOUBLE_EQ(u.Value({}), majority);
  EXPECT_EQ(u.evaluations(), 0);
}

TEST_F(RetrainUtilityTest, GrandCoalitionBeatsBaseline) {
  RetrainUtility u(&federation_, &test_, config_);
  const double grand = u.Value({0, 1, 2});
  EXPECT_GT(grand, u.Value({}) + 0.1);
  EXPECT_EQ(u.evaluations(), 1);
}

TEST_F(RetrainUtilityTest, CachesByMask) {
  RetrainUtility u(&federation_, &test_, config_);
  const double a = u.Value({0, 2});
  const double b = u.Value({2, 0});
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_EQ(u.evaluations(), 1);
}

TEST_F(RetrainUtilityTest, FederatedModeAlsoWorks) {
  config_.federated = true;
  config_.fedavg.rounds = 2;
  config_.fedavg.local_epochs = 2;
  config_.fedavg.local.learning_rate = 0.05;
  RetrainUtility u(&federation_, &test_, config_);
  const double grand = u.Value({0, 1, 2});
  EXPECT_GT(grand, 0.6);
}

TEST_F(RetrainUtilityTest, DeterministicAcrossInstances) {
  RetrainUtility u1(&federation_, &test_, config_);
  RetrainUtility u2(&federation_, &test_, config_);
  EXPECT_DOUBLE_EQ(u1.Value({0, 1}), u2.Value({0, 1}));
}

}  // namespace
}  // namespace ctfl
