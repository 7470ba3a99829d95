#include "ctfl/rules/extraction.h"

#include <gtest/gtest.h>

#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/nn/trainer.h"
#include "rule_oracle.h"

namespace ctfl {
namespace {

using oracle::BuildRuleModel;
using oracle::RuleModel;

SchemaPtr SmallSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0.0, 1.0),
          FeatureSchema::Discrete("c", {"a", "b", "c"}),
      },
      "neg", "pos");
}

LogicalNetConfig SmallConfig(uint64_t seed = 3) {
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{6, 6}};
  config.fan_in = 2;
  config.seed = seed;
  return config;
}

Dataset RandomData(const SchemaPtr& schema, size_t n, uint64_t seed) {
  Dataset d(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    inst.values = {rng.Uniform(), static_cast<double>(rng.UniformInt(3))};
    inst.label = static_cast<int>(rng.UniformInt(2));
    d.AppendUnchecked(std::move(inst));
  }
  return d;
}

TEST(ExtractionTest, OneRulePerCoordinate) {
  const LogicalNet net(SmallSchema(), SmallConfig());
  const ExtractionResult extraction = ExtractRules(net);
  ASSERT_EQ(static_cast<int>(extraction.rules.size()), net.num_rules());
  for (int j = 0; j < net.num_rules(); ++j) {
    EXPECT_EQ(extraction.rules[j].coordinate, j);
    EXPECT_EQ(extraction.rules[j].support_class, net.RuleClass(j));
    EXPECT_NEAR(extraction.rules[j].weight, net.RuleWeight(j), 1e-12);
  }
}

TEST(ExtractionTest, SkipRulesAreAtoms) {
  const LogicalNet net(SmallSchema(), SmallConfig());
  const ExtractionResult extraction = ExtractRules(net);
  for (int j = 0; j < net.encoded_size(); ++j) {
    EXPECT_EQ(extraction.rules[j].rule.kind(), Rule::Kind::kAtom);
  }
}

// Core equivalence property: the symbolic RuleModel built from the net must
// agree with the net's binarized path on activations AND classifications.
class ExtractionEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtractionEquivalence, RuleModelMatchesNetOnRandomInputs) {
  const SchemaPtr schema = SmallSchema();
  LogicalNet net(schema, SmallConfig(GetParam()));
  // Train briefly so weights are non-trivial (mix of learned structure).
  const Dataset train = RandomData(schema, 200, GetParam() + 1);
  TrainConfig tc;
  tc.epochs = 3;
  TrainGrafted(net, train, tc);

  const RuleModel model = BuildRuleModel(net);
  ASSERT_EQ(model.num_rules(), net.num_rules());

  const Dataset probe = RandomData(schema, 100, GetParam() + 2);
  for (const Instance& inst : probe.instances()) {
    const Bitset net_bits = net.RuleActivations(inst);
    const Bitset model_bits = model.Activations(inst);
    EXPECT_EQ(net_bits, model_bits);
    EXPECT_EQ(model.Classify(inst), net.Predict(inst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractionEquivalence,
                         ::testing::Values(10, 20, 30, 40));

TEST(ExtractionTest, EquivalenceHoldsOnTicTacToeAfterTraining) {
  const Dataset data = GenerateTicTacToe();
  LogicalNetConfig config;
  config.logic_layers = {{32, 32}};
  config.seed = 77;
  LogicalNet net(data.schema(), config);
  TrainConfig tc;
  tc.epochs = 10;
  TrainGrafted(net, data, tc);

  const RuleModel model = BuildRuleModel(net);
  size_t checked = 0;
  for (size_t i = 0; i < data.size(); i += 9) {
    const Instance& inst = data.instance(i);
    EXPECT_EQ(model.Classify(inst), net.Predict(inst));
    EXPECT_EQ(model.Activations(inst), net.RuleActivations(inst));
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

TEST(ExtractionTest, MultiLayerRulesExpandRecursively) {
  LogicalNetConfig config;
  config.tau_d = 3;
  config.logic_layers = {{4, 4}, {3, 3}};
  config.fan_in = 2;
  config.seed = 5;
  const SchemaPtr schema = SmallSchema();
  const LogicalNet net(schema, config);
  const ExtractionResult extraction = ExtractRules(net);
  ASSERT_EQ(static_cast<int>(extraction.rules.size()), net.num_rules());
  // Second-layer rules expand into compound formulas.
  bool compound = false;
  for (const ExtractedRule& er : extraction.rules) {
    compound = compound || er.rule.kind() == Rule::Kind::kConj ||
               er.rule.kind() == Rule::Kind::kDisj;
  }
  EXPECT_TRUE(compound);

  // Equivalence also holds for the deeper architecture.
  const RuleModel model = BuildRuleModel(net);
  const Dataset probe = RandomData(schema, 60, 6);
  for (const Instance& inst : probe.instances()) {
    EXPECT_EQ(model.Activations(inst), net.RuleActivations(inst));
    EXPECT_EQ(model.Classify(inst), net.Predict(inst));
  }
}

}  // namespace
}  // namespace ctfl
