#include <gtest/gtest.h>

#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/data/stats.h"

namespace ctfl {
namespace {

TEST(TicTacToeTest, ReconstructsCanonicalDataset) {
  const Dataset d = GenerateTicTacToe();
  // The UCI endgame dataset: 958 boards, 626 "x wins".
  EXPECT_EQ(d.size(), 958u);
  EXPECT_EQ(d.ClassCounts()[1], 626u);
  EXPECT_EQ(d.ClassCounts()[0], 332u);
}

TEST(TicTacToeTest, SchemaHasNineTernaryCells) {
  const SchemaPtr schema = TicTacToeSchema();
  EXPECT_EQ(schema->num_features(), 9);
  for (int f = 0; f < 9; ++f) {
    EXPECT_EQ(schema->feature(f).type, FeatureType::kDiscrete);
    EXPECT_EQ(schema->feature(f).num_categories(), 3);
  }
}

TEST(TicTacToeTest, EveryBoardIsLegalTerminal) {
  const Dataset d = GenerateTicTacToe();
  for (const Instance& inst : d.instances()) {
    int x_count = 0, o_count = 0, blanks = 0;
    for (double v : inst.values) {
      const int c = static_cast<int>(v);
      x_count += c == 1;
      o_count += c == 2;
      blanks += c == 0;
    }
    // x moves first: x count is o count or o count + 1.
    EXPECT_TRUE(x_count == o_count || x_count == o_count + 1);
    EXPECT_EQ(x_count + o_count + blanks, 9);
  }
}

TEST(TicTacToeTest, DeterministicAcrossCalls) {
  const Dataset a = GenerateTicTacToe();
  const Dataset b = GenerateTicTacToe();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.instance(i).values, b.instance(i).values);
    EXPECT_EQ(a.instance(i).label, b.instance(i).label);
  }
}

TEST(SyntheticTest, PredicatesEvaluate) {
  Instance inst;
  inst.values = {5.0, 2.0};
  EXPECT_TRUE((GtPredicate{0, GtPredicate::Op::kGt, 4.0}).Holds(inst));
  EXPECT_FALSE((GtPredicate{0, GtPredicate::Op::kGt, 5.0}).Holds(inst));
  EXPECT_TRUE((GtPredicate{0, GtPredicate::Op::kLt, 6.0}).Holds(inst));
  EXPECT_TRUE((GtPredicate{1, GtPredicate::Op::kEq, 2.0}).Holds(inst));
  EXPECT_TRUE((GtPredicate{1, GtPredicate::Op::kNeq, 3.0}).Holds(inst));
}

TEST(SyntheticTest, RuleFiresOnlyWhenAllConjunctsHold) {
  GtRule rule{{{0, GtPredicate::Op::kGt, 1.0}, {1, GtPredicate::Op::kEq, 0.0}},
              1,
              1.0};
  Instance match;
  match.values = {2.0, 0.0};
  Instance miss;
  miss.values = {2.0, 1.0};
  EXPECT_TRUE(rule.Fires(match));
  EXPECT_FALSE(rule.Fires(miss));
}

TEST(SyntheticTest, NoiseFreeLabelsFollowRules) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "neg",
      "pos");
  spec.samplers = {FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  spec.label_noise = 0.0;
  Rng rng(3);
  const Dataset d = GenerateSynthetic(spec, 2000, rng);
  for (const Instance& inst : d.instances()) {
    EXPECT_EQ(inst.label, inst.values[0] > 0.5 ? 1 : 0);
  }
}

TEST(SyntheticTest, LabelNoiseBoundsAccuracy) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "neg",
      "pos");
  spec.samplers = {FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  spec.label_noise = 0.2;
  Rng rng(4);
  const Dataset d = GenerateSynthetic(spec, 20000, rng);
  size_t agree = 0;
  for (const Instance& inst : d.instances()) {
    agree += inst.label == (inst.values[0] > 0.5 ? 1 : 0);
  }
  // The optimal classifier agrees with 1 - noise of labels.
  EXPECT_NEAR(static_cast<double>(agree) / d.size(), 0.8, 0.02);
}

TEST(SyntheticTest, SamplersRespectDomains) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("u", -1, 2),
          FeatureSchema::Continuous("n", 0, 10),
          FeatureSchema::Continuous("e", 0, 100),
          FeatureSchema::Continuous("s", 0, 50),
          FeatureSchema::Discrete("c", {"a", "b", "c"}),
      },
      "neg", "pos");
  spec.samplers = {
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kNormal, 5, 2, {}},
      FeatureSampler{FeatureSampler::Kind::kExponential, 10, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kSpikeUniform, 0.5, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0, {1, 1, 2}},
  };
  Rng rng(5);
  const Dataset d = GenerateSynthetic(spec, 5000, rng);
  size_t spikes = 0;
  for (const Instance& inst : d.instances()) {
    EXPECT_GE(inst.values[0], -1.0);
    EXPECT_LT(inst.values[0], 2.0);
    EXPECT_GE(inst.values[1], 0.0);
    EXPECT_LE(inst.values[1], 10.0);
    EXPECT_GE(inst.values[2], 0.0);
    EXPECT_LE(inst.values[2], 100.0);
    const int c = static_cast<int>(inst.values[4]);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
    spikes += inst.values[3] == 0.0;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / d.size(), 0.5, 0.05);
}

struct BenchmarkCase {
  const char* name;
  size_t paper_size;
  double min_pos_rate;
  double max_pos_rate;
};

// ctest registers each case under the printed parameter. Without this gtest
// prints the raw bytes, `name`'s address among them, which moves from run
// to run.
void PrintTo(const BenchmarkCase& c, std::ostream* os) { *os << c.name; }

class BenchmarkDatasetTest : public ::testing::TestWithParam<BenchmarkCase> {};

TEST_P(BenchmarkDatasetTest, MatchesPaperShape) {
  const BenchmarkCase& c = GetParam();
  EXPECT_EQ(BenchmarkDefaultSize(c.name), c.paper_size);
  // Generate a scaled-down sample for speed.
  const size_t n = std::string(c.name) == "tic-tac-toe" ? 0 : 4000;
  const Result<Dataset> d = MakeBenchmark(c.name, n, /*seed=*/99);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_GE(d->PositiveRate(), c.min_pos_rate) << c.name;
  EXPECT_LE(d->PositiveRate(), c.max_pos_rate) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperDatasets, BenchmarkDatasetTest,
    ::testing::Values(BenchmarkCase{"tic-tac-toe", 958, 0.6, 0.7},
                      BenchmarkCase{"adult", 32561, 0.15, 0.40},
                      BenchmarkCase{"bank", 45211, 0.05, 0.30},
                      BenchmarkCase{"dota2", 102944, 0.40, 0.65}));

TEST(BenchmarkDatasetTest, UnknownNameFails) {
  EXPECT_FALSE(MakeBenchmark("unknown", 10, 1).ok());
  EXPECT_FALSE(BenchmarkSpec("tic-tac-toe").ok());
}

TEST(BenchmarkDatasetTest, FeatureCountsMatchTableIV) {
  EXPECT_EQ(MakeBenchmark("tic-tac-toe", 0, 1)->schema()->num_features(), 9);
  EXPECT_EQ(BenchmarkSpec("adult")->schema->num_features(), 14);
  EXPECT_EQ(BenchmarkSpec("bank")->schema->num_features(), 16);
  EXPECT_EQ(BenchmarkSpec("dota2")->schema->num_features(), 116);
}

TEST(BenchmarkDatasetTest, SeedsChangeData) {
  const Dataset a = *MakeBenchmark("adult", 100, 1);
  const Dataset b = *MakeBenchmark("adult", 100, 2);
  bool any_diff = false;
  for (size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = a.instance(i).values != b.instance(i).values;
  }
  EXPECT_TRUE(any_diff);
}

TEST(StatsTest, ComputesTableIvRow) {
  const Dataset d = GenerateTicTacToe();
  const DatasetStats stats = ComputeStats("tic-tac-toe", d);
  EXPECT_EQ(stats.num_instances, 958u);
  EXPECT_EQ(stats.num_features, 9);
  EXPECT_EQ(stats.FeatureTypeLabel(), "discrete");
  const std::string row = FormatStatsRow(stats);
  EXPECT_NE(row.find("tic-tac-toe"), std::string::npos);
  EXPECT_NE(row.find("958"), std::string::npos);
}

TEST(StatsTest, MixedLabel) {
  const Dataset d = *MakeBenchmark("adult", 50, 3);
  const DatasetStats stats = ComputeStats("adult", d);
  EXPECT_EQ(stats.FeatureTypeLabel(), "mixed");
}

}  // namespace
}  // namespace ctfl
