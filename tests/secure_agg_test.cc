#include "ctfl/fl/secure_agg.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/fedavg.h"
#include "ctfl/fl/partition.h"

namespace ctfl {
namespace {

// Full participation: every client of the session survives the round.
std::vector<int> Everyone(int n) {
  std::vector<int> cohort(n);
  for (int c = 0; c < n; ++c) cohort[c] = c;
  return cohort;
}

TEST(SecureAggTest, MasksCancelExactly) {
  const size_t dim = 200;
  const int clients = 5;
  SecureAggregator agg(clients, dim, /*session_seed=*/7);

  Rng rng(1);
  std::vector<std::vector<double>> updates(clients,
                                           std::vector<double>(dim));
  std::vector<double> expected(dim, 0.0);
  for (auto& update : updates) {
    for (double& v : update) v = rng.Uniform(-2.0, 2.0);
    for (size_t k = 0; k < dim; ++k) expected[k] += update[k];
  }

  const std::vector<int> everyone = Everyone(clients);
  std::vector<std::vector<double>> masked;
  for (int c = 0; c < clients; ++c) {
    masked.push_back(agg.MaskCohort(c, everyone, updates[c]).value());
  }
  const std::vector<double> sum =
      agg.AggregateCohort(everyone, masked).value();
  for (size_t k = 0; k < dim; ++k) {
    EXPECT_NEAR(sum[k], expected[k], 1e-9);
  }
}

TEST(SecureAggTest, MaskedUpdateHidesTheOriginal) {
  const size_t dim = 1000;
  SecureAggregator agg(4, dim, 11);
  std::vector<double> update(dim, 0.5);  // constant, easy to recognize
  const std::vector<double> masked =
      agg.MaskCohort(1, Everyone(4), update).value();
  // The masked vector should look nothing like the constant input: its
  // empirical variance is dominated by the masks.
  double mean = 0.0;
  for (double v : masked) mean += v;
  mean /= dim;
  double var = 0.0;
  for (double v : masked) var += (v - mean) * (v - mean);
  var /= dim;
  EXPECT_GT(var, 0.2);  // sum of 3 U[-1,1] masks has variance 1.0
}

TEST(SecureAggTest, RejectsBadInputs) {
  SecureAggregator agg(3, 10, 13);
  const std::vector<int> everyone = Everyone(3);
  std::vector<double> wrong_size(5, 0.0);
  EXPECT_FALSE(agg.MaskCohort(0, everyone, wrong_size).ok());
  EXPECT_FALSE(
      agg.MaskCohort(7, everyone, std::vector<double>(10, 0.0)).ok());
  // Aggregation requires every client's contribution.
  std::vector<std::vector<double>> partial(2, std::vector<double>(10, 0.0));
  EXPECT_FALSE(agg.AggregateCohort(everyone, partial).ok());
}

TEST(SecureAggTest, SingleClientIsPassthrough) {
  SecureAggregator agg(1, 4, 17);
  const std::vector<double> update = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> masked =
      agg.MaskCohort(0, Everyone(1), update).value();
  EXPECT_EQ(masked, update);  // no pairs, no masks
}

TEST(SecureAggTest, CohortMasksCancelOverTheSurvivors) {
  // Clients 1 and 3 dropped out; masks are derived pairwise over the
  // survivors {0, 2, 4} only, so the cohort sum recovers their true sum.
  const size_t dim = 128;
  SecureAggregator agg(5, dim, /*session_seed=*/19);
  const std::vector<int> cohort = {0, 2, 4};

  Rng rng(7);
  std::vector<std::vector<double>> updates;
  std::vector<double> expected(dim, 0.0);
  for (size_t i = 0; i < cohort.size(); ++i) {
    std::vector<double> u(dim);
    for (double& v : u) v = rng.Uniform(-2.0, 2.0);
    for (size_t k = 0; k < dim; ++k) expected[k] += u[k];
    updates.push_back(std::move(u));
  }

  std::vector<std::vector<double>> masked;
  for (size_t i = 0; i < cohort.size(); ++i) {
    masked.push_back(agg.MaskCohort(cohort[i], cohort, updates[i]).value());
    // Each masked upload in isolation hides the original.
    if (cohort.size() > 1) {
      EXPECT_NE(masked.back(), updates[i]);
    }
  }
  const std::vector<double> sum =
      agg.AggregateCohort(cohort, masked).value();
  for (size_t k = 0; k < dim; ++k) {
    EXPECT_NEAR(sum[k], expected[k], 1e-9);
  }
}

TEST(SecureAggTest, SingletonCohortIsPassthrough) {
  SecureAggregator agg(5, 3, 29);
  const std::vector<double> update = {1.0, 2.0, 3.0};
  const std::vector<int> cohort = {3};
  EXPECT_EQ(agg.MaskCohort(3, cohort, update).value(), update);
  EXPECT_EQ(agg.AggregateCohort(cohort, {update}).value(), update);
}

TEST(SecureAggTest, CohortApisRejectBadInputs) {
  SecureAggregator agg(4, 8, 31);
  const std::vector<double> update(8, 0.0);
  // Client not in the cohort.
  EXPECT_FALSE(agg.MaskCohort(1, {0, 2}, update).ok());
  // Cohort not strictly ascending / duplicate / out of range / empty.
  EXPECT_FALSE(agg.MaskCohort(2, {2, 0}, update).ok());
  EXPECT_FALSE(agg.MaskCohort(0, {0, 0}, update).ok());
  EXPECT_FALSE(agg.MaskCohort(0, {0, 7}, update).ok());
  EXPECT_FALSE(agg.MaskCohort(0, {}, update).ok());
  // Wrong update width.
  EXPECT_FALSE(agg.MaskCohort(0, {0, 1}, std::vector<double>(3)).ok());
  // Aggregation needs exactly one masked update per cohort member.
  std::vector<std::vector<double>> one(1, update);
  EXPECT_FALSE(agg.AggregateCohort({0, 1}, one).ok());
}

// FedAvg with secure aggregation must match plain FedAvg numerically.
TEST(SecureAggTest, SecureFedAvgMatchesPlain) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "neg",
      "pos");
  spec.samplers = {FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  Rng rng(2);
  const Dataset all = GenerateSynthetic(spec, 400, rng);
  Rng prng(3);
  const std::vector<Dataset> clients = PartitionUniform(all, 3, prng);

  LogicalNetConfig net_config;
  net_config.logic_layers = {{8, 8}};
  net_config.seed = 5;
  FedAvgConfig plain;
  plain.rounds = 3;
  plain.local_epochs = 2;
  plain.local.learning_rate = 0.05;
  FedAvgConfig secure = plain;
  secure.secure_aggregation = true;

  const LogicalNet a =
      TrainFederated(all.schema(), net_config, clients, plain).value();
  const LogicalNet b =
      TrainFederated(all.schema(), net_config, clients, secure).value();

  const std::vector<double> pa = a.GetParameters();
  const std::vector<double> pb = b.GetParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t k = 0; k < pa.size(); ++k) {
    EXPECT_NEAR(pa[k], pb[k], 1e-6);
  }
}

}  // namespace
}  // namespace ctfl
