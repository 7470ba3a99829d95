#include "ctfl/data/split.h"

#include <gtest/gtest.h>

namespace ctfl {
namespace {

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "neg",
      "pos");
}

Dataset MakeDataset(size_t n, double positive_rate) {
  Dataset d(MakeSchema());
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    inst.values = {static_cast<double>(i) / n};
    inst.label = i < n * positive_rate ? 1 : 0;
    d.AppendUnchecked(std::move(inst));
  }
  return d;
}

TEST(SplitTest, StratifiedPreservesClassRatio) {
  const Dataset d = MakeDataset(1000, 0.3);
  Rng rng(5);
  const TrainTestSplit split = StratifiedSplit(d, 0.2, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), d.size());
  EXPECT_NEAR(split.test.size(), 200u, 2);
  EXPECT_NEAR(split.test.PositiveRate(), 0.3, 0.01);
  EXPECT_NEAR(split.train.PositiveRate(), 0.3, 0.01);
}

TEST(SplitTest, SplitsAreDisjointAndComplete) {
  const Dataset d = MakeDataset(100, 0.5);
  Rng rng(6);
  const TrainTestSplit split = StratifiedSplit(d, 0.25, rng);
  // Values are unique per instance, so we can check coverage via sums.
  double total = 0.0;
  for (const Instance& i : split.train.instances()) total += i.values[0];
  for (const Instance& i : split.test.instances()) total += i.values[0];
  double expected = 0.0;
  for (const Instance& i : d.instances()) expected += i.values[0];
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(SplitTest, DifferentSeedsGiveDifferentSplits) {
  const Dataset d = MakeDataset(200, 0.5);
  Rng rng1(1), rng2(2);
  const TrainTestSplit a = StratifiedSplit(d, 0.5, rng1);
  const TrainTestSplit b = StratifiedSplit(d, 0.5, rng2);
  double sum_a = 0.0, sum_b = 0.0;
  for (const Instance& i : a.test.instances()) sum_a += i.values[0];
  for (const Instance& i : b.test.instances()) sum_b += i.values[0];
  EXPECT_NE(sum_a, sum_b);
}

}  // namespace
}  // namespace ctfl
