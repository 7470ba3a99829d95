#include "ctfl/core/tracer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/fl/privacy.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/telemetry/trace.h"
#include "isa_tiers.h"
#include "trace_compare.h"
#include "trace_oracle.h"

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

// A traced pass shows its three parts as spans: the match, the §IV-B fold
// and the per-record counts, in that order, each directly inside
// ctfl.trace.pass on the calling thread.
TEST_F(HandcraftedTracerTest, PassRecordsMatchFoldAndCountsSpans) {
  Federation fed = MakeFederation({
      {Make(2, 1, 0), Make(2, 0, 0)},
      {Make(0, 0, 1), Make(2, 1, 0)},
  });
  Dataset test(schema_);
  test.AppendUnchecked(Make(2, 1, 0));
  test.AppendUnchecked(Make(0, 0, 1));
  TracerConfig config;
  config.num_threads = 2;
  const ContributionTracer tracer(&net_, &fed, config);
  telemetry::SetTracingEnabled(true);
  telemetry::ClearTrace();
  tracer.Trace(test);
  telemetry::SetTracingEnabled(false);
  const std::vector<telemetry::TraceEvent> events = telemetry::TraceEvents();
  telemetry::ClearTrace();

  const auto find = [&](const std::string& name) {
    const telemetry::TraceEvent* found = nullptr;
    for (const telemetry::TraceEvent& event : events) {
      if (name != event.name) continue;
      EXPECT_EQ(found, nullptr) << name << " recorded twice";
      found = &event;
    }
    return found;
  };
  const telemetry::TraceEvent* pass = find("ctfl.trace.pass");
  ASSERT_NE(pass, nullptr);
  int64_t previous_end = pass->start_us;
  for (const char* name :
       {"ctfl.trace.match", "ctfl.trace.fold", "ctfl.trace.counts"}) {
    SCOPED_TRACE(name);
    const telemetry::TraceEvent* part = find(name);
    ASSERT_NE(part, nullptr);
    EXPECT_EQ(part->tid, pass->tid);
    EXPECT_EQ(part->depth, pass->depth + 1);
    EXPECT_GE(part->start_us, previous_end);
    previous_end = part->start_us + part->duration_us;
    // A span's start and duration are each truncated to microseconds.
    EXPECT_LE(previous_end, pass->start_us + pass->duration_us + 2);
  }
}

// ---------------------------------------------------------------------------
// Each key keeps its hits: its nonzero related words split at participant
// bounds. Buckets of 1, 63, 64, 65 and 130 records put participant bounds
// mid-block, so blocks straddle two participants; one participant holds
// no record of class 1 and one holds no record at all. Some keys relate
// to nothing (they need a heavy rule no record has) and some have no
// support weight. Every output must be the oracle's, at a τ_w that
// relates most of a bucket and at τ_w = 1, at every thread count and tier.
// ---------------------------------------------------------------------------
TEST(TracerHitBoundsTest, StraddledAndEmptyParticipantsMatchOracle) {
  const SchemaPtr schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Discrete("f", {"a", "b", "c"})},
      "neg", "pos");
  LogicalNetConfig net_config;
  net_config.logic_layers = {{12, 12}};
  net_config.seed = 5;
  LogicalNet net(schema, net_config);
  // Rule j supports class j % 2; every fifth rule has no weight; rules 0
  // and 1 are heavy and no training record activates them.
  const int num_rules = net.num_rules();
  Rng rng(2024);
  Matrix& w = const_cast<LinearLayer&>(net.linear()).weights();
  w.Fill(0.0);
  for (int j = 0; j < num_rules; ++j) {
    const double weight =
        j < 2 ? 100.0 : (j % 5 == 4 ? 0.0 : rng.Uniform(0.1, 1.0));
    w(j % 2 == 1 ? 1 : 0, j) = weight;
  }
  const auto random_activation = [&](double density, int heavy) {
    Bitset activation(num_rules);
    for (int j = 2; j < num_rules; ++j) {
      if (rng.Bernoulli(density)) activation.Set(j);
    }
    if (heavy >= 0) activation.Set(heavy);
    return activation;
  };

  for (const size_t bucket : {1, 63, 64, 65, 130}) {
    SCOPED_TRACE(::testing::Message() << "bucket " << bucket);
    // Class 1: participants 2, 3, 4 split it at a third and two thirds;
    // class 0: participants 0, 2, 3, 4 at a quarter, half and three
    // quarters. Participant 1 is empty, participant 0 has no class 1.
    const size_t cut1[] = {0, 0, 0, std::min(bucket, bucket / 3 + 1),
                           std::min(bucket, 2 * bucket / 3 + 1), bucket};
    const size_t cut0[] = {0, std::min(bucket, bucket / 4 + 1),
                           std::min(bucket, bucket / 4 + 1),
                           std::min(bucket, bucket / 2 + 3),
                           std::min(bucket, 3 * bucket / 4 + 2), bucket};
    std::vector<std::vector<uint8_t>> labels(5);
    std::vector<std::vector<Bitset>> uploads(5);
    for (size_t p = 0; p < 5; ++p) {
      size_t ones = cut1[p + 1] - cut1[p];
      size_t zeros = cut0[p + 1] - cut0[p];
      while (ones + zeros > 0) {  // the two classes interleaved
        const bool one = ones > 0 && (zeros == 0 || rng.Bernoulli(0.5));
        (one ? ones : zeros) -= 1;
        labels[p].push_back(one ? 1 : 0);
        uploads[p].push_back(random_activation(0.6, -1));
      }
    }
    std::vector<TestForward> forwards;
    for (int t = 0; t < 48; ++t) {
      TestForward fwd;
      fwd.predicted = static_cast<uint8_t>(rng.UniformInt(2));
      fwd.label = static_cast<uint8_t>(rng.UniformInt(2));
      if (t % 7 == 6) {  // only weightless rules: no support weight
        fwd.activation = Bitset(num_rules);
        for (int j = 4; j < num_rules; j += 5) fwd.activation.Set(j);
      } else {
        fwd.activation = random_activation(
            0.5, t % 6 == 5 ? fwd.predicted : -1);  // heavy: no record
      }
      forwards.push_back(fwd);
      if (t % 4 == 0) {  // a second member of the key, other label
        fwd.label ^= 1;
        forwards.push_back(fwd);
      }
    }

    for (const double tau_w : {0.3, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "tau_w " << tau_w);
      TracerConfig config;
      config.tau_w = tau_w;
      const TraceResult expected =
          oracle::Trace(net, labels, uploads, forwards, config);
      ASSERT_GT(expected.related_records, 0);
      ForEachTier([&](TraceIsa isa) {
        for (const int threads : {1, 2, 4, 8}) {
          SCOPED_TRACE(::testing::Message() << "threads " << threads);
          config.isa = isa;
          config.num_threads = threads;
          const ContributionTracer tracer(&net, &labels, &uploads, config);
          ExpectTracesIdentical(expected, tracer.TraceForwards(forwards),
                                /*with_kernel_work=*/false);
        }
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Consistency properties on a *trained* model over synthetic data: the
// deduplicating, threaded tracer must reproduce the brute-force oracle
// (trace_oracle.h) without changing any output bit.
// ---------------------------------------------------------------------------
struct ConsistencyCase {
  // Whether the oracle keys tests as the tracer does (every field must
  // match bit for bit) or gives every test a key of its own (every field
  // that keying leaves alone must).
  bool oracle_dedup;
  // Once chose between the blocked and the scalar kernel; the scalar one is
  // now the oracle every case is checked against. Kept so the case bytes,
  // and with them the registered test names, stay the same.
  bool retired_kernel_flag;
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
  const ConsistencyCase& c = GetParam();
  TracerConfig config;
  config.tau_w = 0.85;
  config.num_threads = c.num_threads;
  const TraceResult actual =
      ContributionTracer(net_, federation_, config).Trace(*test_);

  const TraceResult expected = oracle::Trace(
      *net_, oracle::Labels(*federation_),
      ContributionTracer::ComputeUploadActivations(*net_, *federation_,
                                                   config),
      oracle::Forwards(*net_, *test_), config, c.oracle_dedup);
  if (c.oracle_dedup) {
    ExpectTracesIdentical(expected, actual, /*with_kernel_work=*/false);
  } else {
    ExpectTracesEquivalentUpToKeying(expected, actual);
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

// The upload pass fans participants out over the compute pool, largest
// first: uploads (each participant's DP stream seeded dp_seed + p and
// consumed in record order) and the summed train accuracy must be the
// serial per-participant loop's bits at any thread count.
TEST(UploadActivationsTest, BitIdenticalAcrossThreadCounts) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1),
                               FeatureSchema::Discrete("d", {"p", "q", "r"})},
      "neg", "pos");
  spec.samplers = {
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.6}}, 1, 1.0},
                {{{1, GtPredicate::Op::kEq, 2}}, 1, 0.5}};
  spec.label_noise = 0.1;
  Rng rng(606);
  const Dataset all = GenerateSynthetic(spec, 700, rng);
  Rng prng(607);
  // Skewed sizes, so the largest-first order differs from index order.
  const Federation federation =
      MakeFederation(PartitionSkewSample(all, 5, 0.8, prng));
  LogicalNetConfig net_config;
  net_config.logic_layers = {{8, 8}};
  net_config.seed = 3;
  LogicalNet net(spec.schema, net_config);
  TrainConfig train;
  train.epochs = 3;
  train.num_threads = 1;
  TrainGrafted(net, all, train);

  for (double epsilon : {0.0, 1.5}) {
    SCOPED_TRACE(::testing::Message() << "dp_epsilon " << epsilon);
    // Participant by participant in index order: each one's forward, then
    // its own DP stream over its records in order.
    TracerConfig serial;
    serial.dp_epsilon = epsilon;
    std::vector<std::vector<Bitset>> want(federation.size());
    size_t correct = 0;
    size_t records = 0;
    for (size_t p = 0; p < federation.size(); ++p) {
      Rng dp_rng(serial.dp_seed + p);
      for (const Instance& instance : federation[p].data.instances()) {
        const LogicalNet::Inference inference = net.Infer(instance);
        correct += inference.predicted == instance.label ? 1 : 0;
        ++records;
        want[p].push_back(epsilon > 0.0 ? RandomizedResponse(
                                              inference.activation,
                                              epsilon, dp_rng)
                                        : inference.activation);
      }
    }
    const double want_accuracy = static_cast<double>(correct) / records;
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads " << threads);
      TracerConfig config = serial;
      config.num_threads = threads;
      double accuracy = -1.0;
      const std::vector<std::vector<Bitset>> uploads =
          ContributionTracer::ComputeUploadActivations(net, federation,
                                                       config, &accuracy);
      EXPECT_EQ(uploads, want);
      EXPECT_EQ(std::memcmp(&accuracy, &want_accuracy, sizeof(double)), 0);
    }
  }
}

}  // namespace
}  // namespace ctfl
