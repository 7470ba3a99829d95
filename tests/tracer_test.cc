#include "ctfl/core/tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/nn/trainer.h"

namespace ctfl {
namespace {

// ---------------------------------------------------------------------------
// Handcrafted fixture mirroring paper Examples III.3 / III.4: two discrete
// features; the vote layer is programmed so that exactly four encoded
// predicates act as rules with chosen classes and weights:
//   f = a  -> positive, w = 1.0     (r1+)
//   f = b  -> positive, w = 0.5     (r2+)
//   f = c  -> negative, w = 1.0     (r1-)
//   g = y  -> negative, w = 0.5     (r2-)
// All logic-layer rules get zero vote weight, so tracing ignores them.
// ---------------------------------------------------------------------------
class HandcraftedTracerTest : public ::testing::Test {
 protected:
  HandcraftedTracerTest()
      : schema_(std::make_shared<FeatureSchema>(
            std::vector<FeatureSpec>{
                FeatureSchema::Discrete("f", {"a", "b", "c"}),
                FeatureSchema::Discrete("g", {"n", "y"}),
            },
            "neg", "pos")),
        net_(schema_, MakeConfig()) {
    // Encoded predicate order: f=a(0), f=b(1), f=c(2), g=n(3), g=y(4).
    Matrix& w = MutableLinear().weights();
    w.Fill(0.0);
    MutableLinear().bias().Fill(0.0);
    w(1, 0) = 1.0;   // f=a positive, weight 1
    w(1, 1) = 0.5;   // f=b positive, weight 0.5
    w(0, 2) = 1.0;   // f=c negative, weight 1
    w(0, 4) = 0.5;   // g=y negative, weight 0.5
    // Zero the logic-layer weights so their nodes are constant rules with
    // zero vote weight (filtered by min_rule_weight).
    for (LogicLayer& layer : net_.mutable_logic_layers()) {
      layer.weights().Fill(0.0);
    }
  }

  static LogicalNetConfig MakeConfig() {
    LogicalNetConfig config;
    config.logic_layers = {{2, 2}};
    config.fan_in = 1;
    config.seed = 1;
    return config;
  }

  // The test programs the vote layer directly to realize known rules.
  LinearLayer& MutableLinear() {
    return const_cast<LinearLayer&>(net_.linear());
  }

  Instance Make(int f, int g, int label) {
    Instance inst;
    inst.values = {static_cast<double>(f), static_cast<double>(g)};
    inst.label = label;
    return inst;
  }

  Federation MakeFederation(std::vector<std::vector<Instance>> per_client) {
    std::vector<Dataset> datasets;
    for (auto& instances : per_client) {
      Dataset d(schema_);
      for (Instance& inst : instances) d.AppendUnchecked(std::move(inst));
      datasets.push_back(std::move(d));
    }
    return ::ctfl::MakeFederation(std::move(datasets));
  }

  SchemaPtr schema_;
  LogicalNet net_;
};

TEST_F(HandcraftedTracerTest, PredictionsFollowProgrammedRules) {
  EXPECT_EQ(net_.Predict(Make(0, 0, 0)), 1);  // f=a: +1 vs 0
  EXPECT_EQ(net_.Predict(Make(2, 0, 0)), 0);  // f=c: 0 vs 1
  EXPECT_EQ(net_.Predict(Make(1, 1, 0)), 1);  // +0.5 vs -0.5: tie -> pos
  EXPECT_EQ(net_.Predict(Make(2, 1, 0)), 0);  // 0 vs 1.5
}

TEST_F(HandcraftedTracerTest, StrictTracingRequiresFullRuleCoverage) {
  // Paper Example III.3. Test instance (f=c, g=y, label neg) activates
  // r1- (w 1) and r2- (w 0.5). Participant B holds (c, y) records that
  // activate both; participant C holds (c, n) records activating only r1-.
  Federation fed = MakeFederation({
      {Make(0, 0, 1), Make(0, 0, 1)},                 // A: positive data
      {Make(2, 1, 0), Make(2, 1, 0), Make(2, 1, 0)},  // B: full coverage
      {Make(2, 0, 0), Make(2, 0, 0)},                 // C: only r1-
  });
  Dataset test(schema_);
  test.AppendUnchecked(Make(2, 1, 0));

  TracerConfig strict;
  strict.tau_w = 1.0;
  strict.num_threads = 1;
  const TraceResult trace =
      ContributionTracer(&net_, &fed, strict).Trace(test);
  ASSERT_EQ(trace.tests.size(), 1u);
  EXPECT_TRUE(trace.tests[0].correct);
  EXPECT_EQ(trace.tests[0].related_count[0], 0);
  EXPECT_EQ(trace.tests[0].related_count[1], 3);
  EXPECT_EQ(trace.tests[0].related_count[2], 0);  // 2/3 < 1.0

  // Softer threshold 0.6 admits C's records: ratio 1/1.5 = 2/3 >= 0.6.
  TracerConfig soft = strict;
  soft.tau_w = 0.6;
  const TraceResult soft_trace =
      ContributionTracer(&net_, &fed, soft).Trace(test);
  EXPECT_EQ(soft_trace.tests[0].related_count[1], 3);
  EXPECT_EQ(soft_trace.tests[0].related_count[2], 2);
}

TEST_F(HandcraftedTracerTest, LabelMismatchNeverRelated) {
  // Training data with the right activations but the wrong label must not
  // be related (the label-flip defense, §IV-A).
  Federation fed = MakeFederation({
      {Make(2, 1, 1)},  // label-flipped copy of the test pattern
      {Make(2, 1, 0)},  // honest record
  });
  Dataset test(schema_);
  test.AppendUnchecked(Make(2, 1, 0));
  TracerConfig config;
  config.tau_w = 0.8;
  config.num_threads = 1;
  const TraceResult trace =
      ContributionTracer(&net_, &fed, config).Trace(test);
  EXPECT_EQ(trace.tests[0].related_count[0], 0);
  EXPECT_EQ(trace.tests[0].related_count[1], 1);
}

TEST_F(HandcraftedTracerTest, MisclassifiedTestsTraceToWrongClassData) {
  // Test (f=c, g=n) with TRUE label positive: the model predicts negative
  // (r1- fires), a false negative. Loss tracing should attribute it to
  // holders of negative data activating r1-.
  Federation fed = MakeFederation({
      {Make(2, 0, 0), Make(2, 0, 0)},  // negative-class holders
      {Make(0, 0, 1)},                 // positive data, unrelated
  });
  Dataset test(schema_);
  test.AppendUnchecked(Make(2, 0, 1));  // true label positive
  TracerConfig config;
  config.tau_w = 1.0;
  config.num_threads = 1;
  const TraceResult trace =
      ContributionTracer(&net_, &fed, config).Trace(test);
  ASSERT_FALSE(trace.tests[0].correct);
  EXPECT_EQ(trace.tests[0].predicted, 0);
  EXPECT_EQ(trace.tests[0].related_count[0], 2);
  EXPECT_EQ(trace.tests[0].related_count[1], 0);
  // Those matches land in the miss ledger, not the correct ledger.
  EXPECT_EQ(trace.train_match_miss[0][0], 1);
  EXPECT_EQ(trace.train_match_correct[0][0], 0);
}

TEST_F(HandcraftedTracerTest, UncoveredMisclassificationsFeedGuidance) {
  // A false-negative test with NO related training data at all.
  Federation fed = MakeFederation({
      {Make(0, 0, 1)},  // positive data only
  });
  Dataset test(schema_);
  test.AppendUnchecked(Make(2, 0, 1));  // predicted neg, no neg data exists
  TracerConfig config;
  config.num_threads = 1;
  const TraceResult trace =
      ContributionTracer(&net_, &fed, config).Trace(test);
  EXPECT_EQ(trace.uncovered_tests, 1u);
  // The activated rule f=c (coordinate 2) must appear in the guidance
  // frequencies.
  EXPECT_GT(trace.uncovered_rule_freq[2], 0.0);
}

TEST_F(HandcraftedTracerTest, GlobalAccuracyMatchesModel) {
  Federation fed = MakeFederation({{Make(0, 0, 1), Make(2, 1, 0)}});
  Dataset test(schema_);
  test.AppendUnchecked(Make(0, 0, 1));  // correct
  test.AppendUnchecked(Make(2, 1, 0));  // correct
  test.AppendUnchecked(Make(2, 1, 1));  // wrong
  TracerConfig config;
  config.num_threads = 1;
  const TraceResult trace =
      ContributionTracer(&net_, &fed, config).Trace(test);
  EXPECT_NEAR(trace.global_accuracy, 2.0 / 3, 1e-12);
  EXPECT_NEAR(trace.global_accuracy, net_.Accuracy(test), 1e-12);
}

// ---------------------------------------------------------------------------
// Consistency properties on a *trained* model over synthetic data: the
// dedup, blocked-kernel, and threading fast paths must not change any
// output bit.
// ---------------------------------------------------------------------------
struct ConsistencyCase {
  bool use_dedup;
  bool blocked_kernel;
  // ctest registers each case under gtest's print of its raw bytes. An
  // explicit zero in place of the padding keeps those names the same from
  // build to build.
  uint16_t zero_pad;
  int num_threads;
};
static_assert(std::has_unique_object_representations_v<ConsistencyCase>);

class TracerConsistencyTest
    : public ::testing::TestWithParam<ConsistencyCase> {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.schema = std::make_shared<FeatureSchema>(
        std::vector<FeatureSpec>{
            FeatureSchema::Continuous("x", 0, 1),
            FeatureSchema::Discrete("d", {"p", "q", "r"}),
        },
        "neg", "pos");
    spec.samplers = {
        FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
        FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0, {}}};
    spec.rules = {{{{0, GtPredicate::Op::kGt, 0.6}}, 1, 1.0},
                  {{{0, GtPredicate::Op::kLt, 0.3}}, 0, 1.0},
                  {{{1, GtPredicate::Op::kEq, 2}}, 1, 0.5}};
    spec.label_noise = 0.05;
    Rng rng(404);
    const Dataset all = GenerateSynthetic(spec, 900, rng);
    Rng prng(405);
    federation_ = new Federation(
        ::ctfl::MakeFederation(PartitionSkewLabel(all, 4, 0.8, prng)));
    test_ = new Dataset(GenerateSynthetic(spec, 250, rng));

    LogicalNetConfig config;
    config.logic_layers = {{16, 16}};
    config.seed = 9;
    net_ = new LogicalNet(spec.schema, config);
    TrainConfig tc;
    tc.epochs = 15;
    tc.learning_rate = 0.05;
    TrainGrafted(*net_, MergeFederation(*federation_), tc);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete test_;
    delete federation_;
    net_ = nullptr;
    test_ = nullptr;
    federation_ = nullptr;
  }

  static Federation* federation_;
  static Dataset* test_;
  static LogicalNet* net_;
};

Federation* TracerConsistencyTest::federation_ = nullptr;
Dataset* TracerConsistencyTest::test_ = nullptr;
LogicalNet* TracerConsistencyTest::net_ = nullptr;

TEST_P(TracerConsistencyTest, FastPathsMatchBruteForce) {
  TracerConfig brute;
  brute.tau_w = 0.85;
  brute.use_dedup = false;
  brute.kernel = TraceKernelKind::kLegacy;
  brute.num_threads = 1;
  const TraceResult expected =
      ContributionTracer(net_, federation_, brute).Trace(*test_);

  const ConsistencyCase& c = GetParam();
  TracerConfig fast = brute;
  fast.use_dedup = c.use_dedup;
  fast.kernel =
      c.blocked_kernel ? TraceKernelKind::kBlocked : TraceKernelKind::kLegacy;
  fast.num_threads = c.num_threads;
  const TraceResult actual =
      ContributionTracer(net_, federation_, fast).Trace(*test_);

  ASSERT_EQ(actual.tests.size(), expected.tests.size());
  for (size_t t = 0; t < expected.tests.size(); ++t) {
    EXPECT_EQ(actual.tests[t].related_count, expected.tests[t].related_count)
        << "test " << t;
    EXPECT_EQ(actual.tests[t].correct, expected.tests[t].correct);
  }
  EXPECT_EQ(actual.train_match_correct, expected.train_match_correct);
  EXPECT_EQ(actual.train_match_miss, expected.train_match_miss);
  EXPECT_EQ(actual.uncovered_rule_freq, expected.uncovered_rule_freq);
  EXPECT_EQ(actual.uncovered_tests, expected.uncovered_tests);

  // The §IV-B sums: dedup folds a key's members into one term, which moves
  // the last bits; at one dedup setting they are folded in key order and
  // bit-identical for every kernel and thread count.
  TracerConfig serial = brute;
  serial.use_dedup = c.use_dedup;
  const TraceResult same =
      ContributionTracer(net_, federation_, serial).Trace(*test_);
  ASSERT_EQ(actual.beneficial_rule_freq.size(),
            expected.beneficial_rule_freq.size());
  for (size_t i = 0; i < expected.beneficial_rule_freq.size(); ++i) {
    EXPECT_EQ(actual.beneficial_rule_freq.data()[i],
              same.beneficial_rule_freq.data()[i]);
    EXPECT_EQ(actual.harmful_rule_freq.data()[i],
              same.harmful_rule_freq.data()[i]);
    EXPECT_NEAR(actual.beneficial_rule_freq.data()[i],
                expected.beneficial_rule_freq.data()[i], 1e-6);
    EXPECT_NEAR(actual.harmful_rule_freq.data()[i],
                expected.harmful_rule_freq.data()[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, TracerConsistencyTest,
    ::testing::Values(ConsistencyCase{true, false, 0, 1},
                      ConsistencyCase{true, true, 0, 1},
                      ConsistencyCase{false, true, 0, 1},
                      ConsistencyCase{true, true, 0, 4},
                      ConsistencyCase{false, false, 0, 8}));

// Monotonicity property (paper §III-C Remark): raising tau_w can only
// shrink every related set — a stricter overlap requirement admits fewer
// training records.
TEST_P(TracerConsistencyTest, RelatedSetsShrinkAsTauGrows) {
  std::vector<TraceResult> traces;
  for (double tau : {0.6, 0.8, 1.0}) {
    TracerConfig config;
    config.tau_w = tau;
    config.num_threads = 1;
    traces.push_back(
        ContributionTracer(net_, federation_, config).Trace(*test_));
  }
  for (size_t level = 1; level < traces.size(); ++level) {
    for (size_t t = 0; t < traces[level].tests.size(); ++t) {
      EXPECT_LE(traces[level].tests[t].total_related,
                traces[level - 1].tests[t].total_related)
          << "test " << t << " level " << level;
      for (int p = 0; p < traces[level].num_participants; ++p) {
        EXPECT_LE(traces[level].tests[t].related_count[p],
                  traces[level - 1].tests[t].related_count[p]);
      }
    }
  }
}

}  // namespace
}  // namespace ctfl
