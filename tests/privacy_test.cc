#include "ctfl/fl/privacy.h"

#include <gtest/gtest.h>

#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/valuation/scheme.h"

namespace ctfl {
namespace {

TEST(RandomizedResponseTest, FlipProbabilityEndpoints) {
  EXPECT_DOUBLE_EQ(RandomizedResponseFlipProbability(0.0), 0.5);
  EXPECT_LT(RandomizedResponseFlipProbability(3.0), 0.05);
  EXPECT_LT(RandomizedResponseFlipProbability(10.0), 1e-4);
  // Monotone decreasing in epsilon.
  EXPECT_GT(RandomizedResponseFlipProbability(1.0),
            RandomizedResponseFlipProbability(2.0));
}

TEST(RandomizedResponseTest, HighEpsilonPreservesBits) {
  Rng rng(1);
  Bitset bits(256);
  for (size_t i = 0; i < 256; i += 3) bits.Set(i);
  const Bitset noisy = RandomizedResponse(bits, /*epsilon=*/20.0, rng);
  EXPECT_EQ(noisy, bits);
}

TEST(RandomizedResponseTest, ZeroEpsilonFlipsHalf) {
  Rng rng(2);
  Bitset bits(20000);
  size_t flips = 0;
  const Bitset noisy = RandomizedResponse(bits, /*epsilon=*/0.0, rng);
  for (size_t i = 0; i < bits.size(); ++i) {
    flips += noisy.Test(i) != bits.Test(i);
  }
  EXPECT_NEAR(static_cast<double>(flips) / bits.size(), 0.5, 0.02);
}

TEST(RandomizedResponseTest, EmpiricalFlipRateMatchesTheory) {
  for (double epsilon : {0.5, 1.0, 2.0}) {
    Rng rng(3);
    Bitset bits(20000);
    for (size_t i = 0; i < bits.size(); i += 2) bits.Set(i);
    const Bitset noisy = RandomizedResponse(bits, epsilon, rng);
    size_t flips = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      flips += noisy.Test(i) != bits.Test(i);
    }
    EXPECT_NEAR(static_cast<double>(flips) / bits.size(),
                RandomizedResponseFlipProbability(epsilon), 0.02)
        << "epsilon " << epsilon;
  }
}

// End-to-end: DP-perturbed tracing degrades gracefully — at moderate
// epsilon the contribution ranking stays close to the noiseless one.
TEST(DpTracingTest, ModerateEpsilonPreservesRanking) {
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
  Rng rng(6);
  // A clear volume gradient: P0 >> P1 >> P2.
  const Dataset big = GenerateSynthetic(spec, 900, rng);
  const Dataset mid = GenerateSynthetic(spec, 300, rng);
  const Dataset small = GenerateSynthetic(spec, 100, rng);
  const Dataset test = GenerateSynthetic(spec, 250, rng);
  const Federation fed = MakeFederation({big, mid, small});

  CtflConfig config;
  config.federated = false;
  config.central.epochs = 15;
  config.central.learning_rate = 0.05;
  config.net.logic_layers = {{12, 12}};
  config.tracer.tau_w = 0.85;

  const CtflReport clean = RunCtfl(fed, test, config).value();
  config.tracer.dp_epsilon = 8.0;  // mild per-bit noise
  const CtflReport private_run = RunCtfl(fed, test, config).value();

  EXPECT_EQ(RankByScore(clean.micro_scores),
            RankByScore(private_run.micro_scores));
}

}  // namespace
}  // namespace ctfl
