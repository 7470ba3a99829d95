#include "ctfl/data/dataset.h"

#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "ctfl/util/csv.h"
#include "test_paths.h"

namespace ctfl {
namespace {

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0, 10),
          FeatureSchema::Discrete("c", {"a", "b"}),
      },
      "neg", "pos");
}

Instance MakeInstance(double x, int c, int label) {
  Instance inst;
  inst.values = {x, static_cast<double>(c)};
  inst.label = label;
  return inst;
}

TEST(DatasetTest, AppendValidates) {
  Dataset d(MakeSchema());
  EXPECT_TRUE(d.Append(MakeInstance(1.0, 0, 1)).ok());
  EXPECT_EQ(d.size(), 1u);

  Instance wrong_width;
  wrong_width.values = {1.0};
  EXPECT_FALSE(d.Append(wrong_width).ok());

  EXPECT_FALSE(d.Append(MakeInstance(1.0, 5, 0)).ok());  // bad category
  Instance bad_label = MakeInstance(1.0, 0, 2);
  EXPECT_FALSE(d.Append(bad_label).ok());
  EXPECT_EQ(d.size(), 1u);
}

TEST(DatasetTest, AppendRejectsNonIndexDiscreteValues) {
  // A discrete value must be a finite integer in [0, categories) before
  // anything casts it to a category index.
  Dataset d(MakeSchema());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 1e300, -1e300,
                     -1.0, -0.5, 0.5, 2.5, 2.0}) {
    Instance inst = MakeInstance(1.0, 0, 1);
    inst.values[1] = bad;
    const Status status = d.Append(inst);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(d.size(), 0u);
  for (double good : {0.0, -0.0, 1.0}) {
    Instance inst = MakeInstance(1.0, 0, 1);
    inst.values[1] = good;
    EXPECT_TRUE(d.Append(inst).ok()) << good;
  }
  EXPECT_EQ(d.size(), 3u);
}

TEST(DatasetTest, SubsetPreservesOrder) {
  Dataset d(MakeSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.Append(MakeInstance(i, i % 2, i % 2)).ok());
  }
  const Dataset sub = d.Subset({4, 1});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.instance(0).values[0], 4.0);
  EXPECT_DOUBLE_EQ(sub.instance(1).values[0], 1.0);
}

TEST(DatasetTest, MergeAndCounts) {
  Dataset a(MakeSchema()), b(MakeSchema());
  ASSERT_TRUE(a.Append(MakeInstance(1, 0, 1)).ok());
  ASSERT_TRUE(b.Append(MakeInstance(2, 1, 0)).ok());
  ASSERT_TRUE(b.Append(MakeInstance(3, 1, 0)).ok());
  a.Merge(b);
  EXPECT_EQ(a.size(), 3u);
  const auto counts = a.ClassCounts();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_NEAR(a.PositiveRate(), 1.0 / 3, 1e-12);
}

TEST(DatasetTest, EmptyDatasetBehaviors) {
  Dataset d(MakeSchema());
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.PositiveRate(), 0.0);
  EXPECT_EQ(d.ClassCounts()[0], 0u);
}

TEST(DatasetTest, CsvRoundTrip) {
  const SchemaPtr schema = MakeSchema();
  Dataset d(schema);
  ASSERT_TRUE(d.Append(MakeInstance(1.25, 0, 1)).ok());
  ASSERT_TRUE(d.Append(MakeInstance(7.5, 1, 0)).ok());

  const std::string path = TestTempPath("dataset_roundtrip.csv");
  ASSERT_TRUE(SaveCsvDataset(path, d).ok());
  const Result<Dataset> loaded = LoadCsvDataset(path, schema);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->instance(0).values[0], 1.25);
  EXPECT_EQ(loaded->instance(0).label, 1);
  EXPECT_EQ(static_cast<int>(loaded->instance(1).values[1]), 1);
  EXPECT_EQ(loaded->instance(1).label, 0);
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadRejectsUnknownLabel) {
  const SchemaPtr schema = MakeSchema();
  const std::string path = TestTempPath("bad_label.csv");
  {
    CsvTable table;
    table.header = {"x", "c", "label"};
    table.rows = {{"1.0", "a", "maybe"}};
    ASSERT_TRUE(WriteCsv(path, table).ok());
  }
  EXPECT_FALSE(LoadCsvDataset(path, schema).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctfl
