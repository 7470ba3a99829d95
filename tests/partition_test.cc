#include "ctfl/fl/partition.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/fl/participant.h"

namespace ctfl {
namespace {

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "neg",
      "pos");
}

Dataset MakeDataset(size_t n, double positive_rate, uint64_t seed) {
  Dataset d(MakeSchema());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    inst.values = {rng.Uniform()};
    inst.label = rng.Bernoulli(positive_rate) ? 1 : 0;
    d.AppendUnchecked(std::move(inst));
  }
  return d;
}

size_t TotalSize(const std::vector<Dataset>& parts) {
  size_t total = 0;
  for (const Dataset& p : parts) total += p.size();
  return total;
}

TEST(PartitionTest, SkewSampleConservesInstances) {
  const Dataset d = MakeDataset(1000, 0.5, 1);
  Rng rng(2);
  const std::vector<Dataset> parts = PartitionSkewSample(d, 8, 0.8, rng);
  EXPECT_EQ(parts.size(), 8u);
  EXPECT_EQ(TotalSize(parts), d.size());
}

TEST(PartitionTest, SkewSampleLowAlphaIsMoreSkewed) {
  const Dataset d = MakeDataset(4000, 0.5, 3);
  auto max_share = [&](double alpha, uint64_t seed) {
    double total_max = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
      Rng rng(seed + rep);
      const std::vector<Dataset> parts = PartitionSkewSample(d, 8, alpha, rng);
      size_t largest = 0;
      for (const Dataset& p : parts) largest = std::max(largest, p.size());
      total_max += static_cast<double>(largest) / d.size();
    }
    return total_max / 10;
  };
  EXPECT_GT(max_share(0.1, 10), max_share(50.0, 20));
}

TEST(PartitionTest, SkewLabelConservesInstancesAndSkewsLabels) {
  const Dataset d = MakeDataset(4000, 0.5, 4);
  Rng rng(5);
  const std::vector<Dataset> parts = PartitionSkewLabel(d, 8, 0.3, rng);
  EXPECT_EQ(TotalSize(parts), d.size());
  // With low alpha, participants' positive rates should differ noticeably.
  double min_rate = 1.0, max_rate = 0.0;
  for (const Dataset& p : parts) {
    if (p.size() < 20) continue;
    min_rate = std::min(min_rate, p.PositiveRate());
    max_rate = std::max(max_rate, p.PositiveRate());
  }
  EXPECT_GT(max_rate - min_rate, 0.2);
}

TEST(PartitionTest, UniformIsBalanced) {
  const Dataset d = MakeDataset(800, 0.5, 6);
  Rng rng(7);
  const std::vector<Dataset> parts = PartitionUniform(d, 8, rng);
  for (const Dataset& p : parts) {
    EXPECT_NEAR(p.size(), 100u, 1);
  }
}

TEST(PartitionTest, SingleParticipantGetsEverything) {
  const Dataset d = MakeDataset(100, 0.5, 8);
  Rng rng(9);
  const std::vector<Dataset> parts = PartitionSkewSample(d, 1, 1.0, rng);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 100u);
}

// A dataset whose feature values are the record indices, so partition
// outputs can be traced back to the exact source rows.
Dataset IndexTaggedDataset(size_t n, double positive_rate, uint64_t seed) {
  Dataset d(std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("idx", 0, static_cast<double>(n))},
      "neg", "pos"));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    inst.values = {static_cast<double>(i)};
    inst.label = rng.Bernoulli(positive_rate) ? 1 : 0;
    d.AppendUnchecked(std::move(inst));
  }
  return d;
}

// Flattens a partition back into source-row ids via the index tag.
std::vector<size_t> CollectIndices(const std::vector<Dataset>& parts) {
  std::vector<size_t> out;
  for (const Dataset& p : parts) {
    for (const Instance& inst : p.instances()) {
      out.push_back(static_cast<size_t>(inst.values[0]));
    }
  }
  return out;
}

// Every source row must land in exactly one bucket: no loss, no duplication.
void ExpectExactCover(const std::vector<Dataset>& parts, size_t n) {
  std::vector<size_t> indices = CollectIndices(parts);
  ASSERT_EQ(indices.size(), n);
  std::sort(indices.begin(), indices.end());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(indices[i], i) << "row " << i << " lost or duplicated";
  }
}

TEST(PartitionTest, MoreParticipantsThanInstances) {
  // n > |train|: most buckets must come back empty, but the split still
  // has to cover every row exactly once across all three partitioners.
  const size_t rows = 5;
  const Dataset d = IndexTaggedDataset(rows, 0.5, 21);
  {
    Rng rng(22);
    const std::vector<Dataset> parts = PartitionUniform(d, 20, rng);
    ASSERT_EQ(parts.size(), 20u);
    ExpectExactCover(parts, rows);
  }
  {
    Rng rng(23);
    const std::vector<Dataset> parts = PartitionSkewSample(d, 20, 0.3, rng);
    ASSERT_EQ(parts.size(), 20u);
    ExpectExactCover(parts, rows);
  }
  {
    Rng rng(24);
    const std::vector<Dataset> parts = PartitionSkewLabel(d, 20, 0.3, rng);
    ASSERT_EQ(parts.size(), 20u);
    ExpectExactCover(parts, rows);
  }
}

TEST(PartitionTest, RoundingLeftoversAreDistributed) {
  // Ratio * size rounds to 0.5 boundaries everywhere: 7 participants over
  // 100 rows (each nominal share 14.29 rounds to 14, leaving 2+ rows for
  // the remainder/round-robin path). Repeat across seeds so both the
  // under- and over-allocation branches get exercised.
  for (uint64_t seed = 30; seed < 40; ++seed) {
    const size_t rows = 100;
    const Dataset d = IndexTaggedDataset(rows, 0.5, seed);
    Rng rng(seed * 7 + 1);
    ExpectExactCover(PartitionUniform(d, 7, rng), rows);
    Rng rng2(seed * 7 + 2);
    ExpectExactCover(PartitionSkewSample(d, 7, 0.2, rng2), rows);
  }
}

TEST(PartitionTest, SkewLabelHandlesMissingClass) {
  // All-negative training data: the positive class bucket is empty and the
  // per-class Dirichlet split must simply skip it.
  const size_t rows = 60;
  const Dataset d = IndexTaggedDataset(rows, 0.0, 41);
  Rng rng(42);
  const std::vector<Dataset> parts = PartitionSkewLabel(d, 4, 0.5, rng);
  ASSERT_EQ(parts.size(), 4u);
  ExpectExactCover(parts, rows);
  for (const Dataset& p : parts) {
    for (const Instance& inst : p.instances()) EXPECT_EQ(inst.label, 0);
  }

  // Symmetric: all-positive.
  const Dataset all_pos = IndexTaggedDataset(rows, 1.0, 43);
  Rng rng2(44);
  ExpectExactCover(PartitionSkewLabel(all_pos, 4, 0.5, rng2), rows);
}

TEST(PartitionTest, EmptyDatasetYieldsEmptyBuckets) {
  const Dataset d = IndexTaggedDataset(0, 0.5, 45);
  Rng rng(46);
  const std::vector<Dataset> parts = PartitionSkewLabel(d, 3, 1.0, rng);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(TotalSize(parts), 0u);
}

TEST(FederationTest, MakeMergeAndCoalitions) {
  const Dataset d = MakeDataset(300, 0.4, 10);
  Rng rng(11);
  Federation fed = MakeFederation(PartitionUniform(d, 3, rng));
  ASSERT_EQ(fed.size(), 3u);
  EXPECT_EQ(fed[0].name, "P0");
  EXPECT_EQ(fed[2].id, 2);
  EXPECT_EQ(MergeFederation(fed).size(), 300u);
  EXPECT_EQ(MergeCoalition(fed, {0, 2}).size(),
            fed[0].data.size() + fed[2].data.size());
  EXPECT_EQ(MergeCoalition(fed, {}).size(), 0u);
}

}  // namespace
}  // namespace ctfl
