#include "ctfl/mining/test_grouping.h"

#include <gtest/gtest.h>

#include "ctfl/util/rng.h"

namespace ctfl {
namespace {

Bitset MakeActivation(size_t n, std::vector<int> items) {
  Bitset b(n);
  for (int i : items) b.Set(i);
  return b;
}

double Weighted(const Bitset& bits, const std::vector<double>& weights) {
  double total = 0.0;
  for (size_t i : bits.SetBits()) total += weights[i];
  return total;
}

TEST(GroupingTest, EveryActivationAssignedExactlyOnce) {
  Rng rng(1);
  const size_t num_items = 20;
  std::vector<Bitset> activations;
  for (int t = 0; t < 100; ++t) {
    Bitset b(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(0.25)) b.Set(i);
    }
    activations.push_back(std::move(b));
  }
  const std::vector<double> weights(num_items, 1.0);
  GroupingConfig config;
  config.min_support_fraction = 0.1;
  config.min_instances = 10;
  const auto groups = GroupActivations(activations, weights, 0.9, config);

  std::vector<int> seen(activations.size(), 0);
  for (const TestGroup& g : groups) {
    for (size_t member : g.members) ++seen[member];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(GroupingTest, FrequentSubsetIsContainedInMembers) {
  Rng rng(2);
  const size_t num_items = 16;
  std::vector<Bitset> activations;
  for (int t = 0; t < 80; ++t) {
    Bitset b(num_items);
    // Common core {0,1} in most transactions + random extras.
    if (t % 4 != 0) {
      b.Set(0);
      b.Set(1);
    }
    for (size_t i = 2; i < num_items; ++i) {
      if (rng.Bernoulli(0.2)) b.Set(i);
    }
    activations.push_back(std::move(b));
  }
  const std::vector<double> weights(num_items, 1.0);
  GroupingConfig config;
  config.min_support_fraction = 0.3;
  config.min_instances = 10;
  const auto groups = GroupActivations(activations, weights, 1.0, config);
  for (const TestGroup& g : groups) {
    for (size_t member : g.members) {
      for (int item : g.frequent_subset) {
        EXPECT_TRUE(activations[member].Test(item))
            << "member " << member << " lacks item " << item;
      }
    }
  }
}

TEST(GroupingTest, FewInstancesBecomeSingletons) {
  std::vector<Bitset> activations = {MakeActivation(8, {1, 2}),
                                     MakeActivation(8, {3})};
  const std::vector<double> weights(8, 1.0);
  GroupingConfig config;
  config.min_instances = 32;  // grouping disabled below this
  const auto groups = GroupActivations(activations, weights, 0.8, config);
  ASSERT_EQ(groups.size(), 2u);
  for (const TestGroup& g : groups) EXPECT_EQ(g.members.size(), 1u);
}

// Soundness: a training activation passing the exact relatedness test
// (weighted overlap ratio >= tau_w) must also pass the group prefilter
// theta — i.e. the prefilter never discards a true positive.
class GroupingSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupingSoundness, PrefilterNeverDropsRelatedPairs) {
  Rng rng(GetParam());
  const size_t num_items = 24;
  std::vector<double> weights(num_items);
  for (double& w : weights) w = rng.Uniform(0.1, 1.0);

  std::vector<Bitset> tests;
  for (int t = 0; t < 60; ++t) {
    Bitset b(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(0.3)) b.Set(i);
    }
    if (b.Count() == 0) b.Set(rng.UniformInt(num_items));
    tests.push_back(std::move(b));
  }
  std::vector<Bitset> train;
  for (int t = 0; t < 120; ++t) {
    Bitset b(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(0.3)) b.Set(i);
    }
    train.push_back(std::move(b));
  }

  const double tau_w = 0.7 + 0.3 * rng.Uniform();
  GroupingConfig config;
  config.min_support_fraction = 0.15;
  config.min_instances = 10;
  const auto groups = GroupActivations(tests, weights, tau_w, config);

  for (const TestGroup& g : groups) {
    for (size_t member : g.members) {
      const double wsum = Weighted(tests[member], weights);
      for (const Bitset& tr : train) {
        double overlap = 0.0;
        for (size_t i : tests[member].SetBits()) {
          if (tr.Test(i)) overlap += weights[i];
        }
        const bool related = overlap >= tau_w * wsum - 1e-12;
        if (!related) continue;
        // The prefilter quantity must reach theta.
        double f_overlap = 0.0;
        for (int item : g.frequent_subset) {
          if (tr.Test(item)) f_overlap += weights[item];
        }
        EXPECT_GE(f_overlap + 1e-9, g.theta)
            << "prefilter would drop a related pair (tau_w=" << tau_w << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupingSoundness,
                         ::testing::Range<uint64_t>(0, 8));

TEST(GroupingTest, EmptyInputYieldsNoGroups) {
  const std::vector<Bitset> none;
  const std::vector<double> weights;
  EXPECT_TRUE(GroupActivations(none, weights, 0.9, GroupingConfig{}).empty());
}

}  // namespace
}  // namespace ctfl
