#include "ctfl/nn/binarization_layer.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/rules/predicate.h"

namespace ctfl {
namespace {

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0.0, 10.0),
          FeatureSchema::Discrete("c", {"a", "b", "c"}),
      },
      "neg", "pos");
}

TEST(BinarizationTest, EncodedSizeCountsOneHotAndBounds) {
  Rng rng(1);
  const BinarizationLayer layer(MakeSchema(), /*tau_d=*/4, rng);
  // 2*4 bounds for the continuous feature + 3 one-hot bits.
  EXPECT_EQ(layer.encoded_size(), 8 + 3);
}

TEST(BinarizationTest, EncodingIsBinaryAndConsistentWithPredicates) {
  Rng rng(2);
  const SchemaPtr schema = MakeSchema();
  const BinarizationLayer layer(schema, 5, rng);
  Instance inst;
  inst.values = {3.7, 1.0};

  std::vector<double> out(layer.encoded_size());
  layer.Encode(inst, out.data());
  for (int j = 0; j < layer.encoded_size(); ++j) {
    EXPECT_TRUE(out[j] == 0.0 || out[j] == 1.0);
    const EncodedPredicate& p = layer.predicate(j);
    bool expected = false;
    switch (p.kind) {
      case EncodedPredicate::Kind::kGreater:
        expected = inst.values[p.feature] > p.threshold;
        break;
      case EncodedPredicate::Kind::kLess:
        expected = inst.values[p.feature] < p.threshold;
        break;
      case EncodedPredicate::Kind::kEquals:
        expected = static_cast<int>(inst.values[p.feature]) == p.category;
        break;
    }
    EXPECT_EQ(out[j] == 1.0, expected) << "predicate " << j;
  }
}

TEST(BinarizationTest, OneHotIsExactlyOnePerDiscreteFeature) {
  Rng rng(3);
  const SchemaPtr schema = MakeSchema();
  const BinarizationLayer layer(schema, 3, rng);
  for (int cat = 0; cat < 3; ++cat) {
    Instance inst;
    inst.values = {5.0, static_cast<double>(cat)};
    std::vector<double> out(layer.encoded_size());
    layer.Encode(inst, out.data());
    int ones = 0;
    for (int j = 0; j < layer.encoded_size(); ++j) {
      if (layer.predicate(j).kind == EncodedPredicate::Kind::kEquals &&
          out[j] == 1.0) {
        ++ones;
        EXPECT_EQ(layer.predicate(j).category, cat);
      }
    }
    EXPECT_EQ(ones, 1);
  }
}

TEST(BinarizationTest, BoundsDrawnFromDomainOnly) {
  Rng rng(4);
  const SchemaPtr schema = MakeSchema();
  const BinarizationLayer layer(schema, 16, rng);
  for (int j = 0; j < layer.encoded_size(); ++j) {
    const EncodedPredicate& p = layer.predicate(j);
    if (p.kind == EncodedPredicate::Kind::kEquals) continue;
    EXPECT_GE(p.threshold, 0.0);
    EXPECT_LE(p.threshold, 10.0);
  }
}

TEST(BinarizationTest, DeterministicGivenSeed) {
  const SchemaPtr schema = MakeSchema();
  Rng rng1(7), rng2(7);
  const BinarizationLayer a(schema, 6, rng1);
  const BinarizationLayer b(schema, 6, rng2);
  for (int j = 0; j < a.encoded_size(); ++j) {
    EXPECT_DOUBLE_EQ(a.predicate(j).threshold, b.predicate(j).threshold);
  }
}

TEST(BinarizationTest, EncodeBatchMatchesSingle) {
  Rng rng(8);
  const SchemaPtr schema = MakeSchema();
  const BinarizationLayer layer(schema, 4, rng);
  Dataset d(schema);
  for (int i = 0; i < 10; ++i) {
    Instance inst;
    inst.values = {i * 1.0, static_cast<double>(i % 3)};
    d.AppendUnchecked(std::move(inst));
  }
  std::vector<size_t> indices = {2, 7};
  const Matrix batch = layer.EncodeBatch(d, indices);
  std::vector<double> single(layer.encoded_size());
  layer.Encode(d.instance(7), single.data());
  for (int j = 0; j < layer.encoded_size(); ++j) {
    EXPECT_DOUBLE_EQ(batch(1, j), single[j]);
  }
}

/// Record r of `packed` against Encode's output for `instance`: bit j set
/// exactly where Encode writes 1.0, and no bit past encoded_size().
void ExpectPackedRowMatchesEncode(const BinarizationLayer& layer,
                                  const Instance& instance,
                                  const PackedRows& packed, size_t r) {
  std::vector<double> dense(layer.encoded_size());
  layer.Encode(instance, dense.data());
  const uint64_t* bits = packed.row(r);
  for (int j = 0; j < layer.encoded_size(); ++j) {
    const bool set = (bits[j / 64] >> (j % 64)) & 1;
    EXPECT_EQ(set, dense[j] == 1.0) << "record " << r << " bit " << j;
  }
  for (size_t j = layer.encoded_size(); j < 64 * packed.words(); ++j) {
    EXPECT_EQ((bits[j / 64] >> (j % 64)) & 1, 0u) << "record " << r;
  }
}

TEST(BinarizationTest, PackedEncodingMatchesEncodeOnEveryGenerator) {
  for (const char* name : kBenchmarkNames) {
    SCOPED_TRACE(name);
    const Dataset data = MakeBenchmark(name, 300, 5).value();
    Rng rng(10);
    const BinarizationLayer layer(data.schema(), 10, rng);
    const PackedRows packed = layer.EncodeDataset(data);
    ASSERT_EQ(packed.rows(), data.size());
    ASSERT_EQ(packed.cols(), static_cast<size_t>(layer.encoded_size()));
    ASSERT_EQ(packed.words(), (packed.cols() + 63) / 64);
    for (size_t r = 0; r < data.size(); ++r) {
      ExpectPackedRowMatchesEncode(layer, data.instance(r), packed, r);
    }
  }
}

TEST(BinarizationTest, PackedEncodingMatchesEncodeAtTheBounds) {
  // A continuous value equal to a bound sets neither its > nor its < bit;
  // the values just beside it set one each. Every continuous feature takes
  // every bound, and its domain's ends, in turn.
  Rng rng(11);
  const SchemaPtr schema = MakeSchema();
  const BinarizationLayer layer(schema, 40, rng);  // 83 bits: two words
  Dataset d(schema);
  for (int j = 0; j < layer.encoded_size(); ++j) {
    const EncodedPredicate& p = layer.predicate(j);
    if (p.kind == EncodedPredicate::Kind::kEquals) continue;
    for (double v : {p.threshold, std::nextafter(p.threshold, -1.0),
                     std::nextafter(p.threshold, 11.0)}) {
      Instance inst;
      inst.values = {v, static_cast<double>(j % 3)};
      d.AppendUnchecked(std::move(inst));
    }
  }
  for (double v : {0.0, 10.0}) {
    Instance inst;
    inst.values = {v, 2.0};
    d.AppendUnchecked(std::move(inst));
  }
  const PackedRows packed = layer.EncodeDataset(d);
  ASSERT_EQ(packed.words(), 2u);
  for (size_t r = 0; r < d.size(); ++r) {
    ExpectPackedRowMatchesEncode(layer, d.instance(r), packed, r);
  }
}

TEST(BinarizationTest, PredicateToString) {
  Rng rng(9);
  const SchemaPtr schema = MakeSchema();
  const BinarizationLayer layer(schema, 2, rng);
  bool saw_threshold = false, saw_equals = false;
  for (int j = 0; j < layer.encoded_size(); ++j) {
    // An encoder bit is named through its symbolic predicate, as the
    // extracted rules name it.
    const std::string s =
        Predicate::FromEncoded(layer.predicate(j)).ToString(*schema);
    if (s.find("x >") != std::string::npos ||
        s.find("x <") != std::string::npos) {
      saw_threshold = true;
    }
    if (s.find("c = ") != std::string::npos) saw_equals = true;
  }
  EXPECT_TRUE(saw_threshold);
  EXPECT_TRUE(saw_equals);
}

}  // namespace
}  // namespace ctfl
