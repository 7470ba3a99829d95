#include "ctfl/kernel/trace_kernel.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/pipeline.h"
#include "ctfl/core/tracer.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/store/snapshot.h"
#include "ctfl/util/rng.h"
#include "test_paths.h"

namespace ctfl {
namespace {

// ---------------------------------------------------------------------------
// Kernel unit tests: Match against the brute-force scalar loop on random
// bit-matrices, including trailing-block and candidate-mask edges.
// ---------------------------------------------------------------------------

struct RandomBucket {
  std::vector<Bitset> storage;
  std::vector<const Bitset*> refs;
};

RandomBucket MakeRandomBucket(size_t num_records, int num_rules,
                              double density, uint64_t seed) {
  RandomBucket bucket;
  Rng rng(seed);
  bucket.storage.reserve(num_records);
  for (size_t r = 0; r < num_records; ++r) {
    Bitset b(num_rules);
    for (int j = 0; j < num_rules; ++j) {
      if (rng.Bernoulli(density)) b.Set(j);
    }
    bucket.storage.push_back(std::move(b));
  }
  for (const Bitset& b : bucket.storage) bucket.refs.push_back(&b);
  return bucket;
}

std::vector<std::pair<int, double>> MakeSupport(int num_rules, size_t count,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, double>> supp;
  for (int j = 0; j < num_rules && supp.size() < count; ++j) {
    if (rng.Bernoulli(static_cast<double>(count) / num_rules)) {
      supp.emplace_back(j, 0.05 + rng.Uniform());
    }
  }
  if (supp.empty()) supp.emplace_back(0, 0.5);
  return supp;
}

// The scalar reference decision: ascending-order accumulation, then the
// exact comparison the tracer (kGeThreshold) or the Max-Miner prefilter
// (kPlusEpsGe) uses.
bool ScalarRelated(const Bitset& act,
                   const std::vector<std::pair<int, double>>& supp,
                   double threshold, TraceKernel::Cmp cmp, double eps) {
  double overlap = 0.0;
  for (const auto& [rule, weight] : supp) {
    if (act.Test(static_cast<size_t>(rule))) overlap += weight;
  }
  if (cmp == TraceKernel::Cmp::kGeThreshold) return !(overlap < threshold);
  return overlap + eps >= threshold;
}

TEST(TraceKernelTest, MatchMatchesScalarOnRandomRecords) {
  const int num_rules = 48;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // 67 records: a full block plus a 3-lane trailing block.
    const RandomBucket bucket = MakeRandomBucket(67, num_rules, 0.35, seed);
    const TraceKernel kernel(bucket.refs, num_rules);
    ASSERT_EQ(kernel.num_records(), 67u);
    ASSERT_EQ(kernel.num_blocks(), 2u);

    const auto supp = MakeSupport(num_rules, 12, seed + 100);
    double weight_sum = 0.0;
    for (const auto& [rule, weight] : supp) weight_sum += weight;
    for (double tau : {0.3, 0.7, 1.0}) {
      const double threshold = tau * weight_sum - 1e-9;
      const TraceKernel::Support support =
          TraceKernel::Prepare(supp, threshold);
      std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
      TraceKernelStats stats;
      const size_t matched =
          kernel.Match(support, nullptr, related.data(), &stats);

      size_t expected = 0;
      for (size_t r = 0; r < bucket.storage.size(); ++r) {
        const bool want =
            ScalarRelated(bucket.storage[r], supp, threshold,
                          TraceKernel::Cmp::kGeThreshold, 0.0);
        const bool got = (related[r / 64] >> (r % 64)) & 1;
        EXPECT_EQ(got, want) << "seed " << seed << " tau " << tau
                             << " record " << r;
        if (want) ++expected;
      }
      EXPECT_EQ(matched, expected);
      // Lanes past the trailing record must stay clear.
      EXPECT_EQ(related[1] >> 3, 0ULL);
      EXPECT_LE(stats.records_scanned, 67);
    }
  }
}

TEST(TraceKernelTest, CandidateMaskRestrictsAndPrunesBlocks) {
  const int num_rules = 32;
  const RandomBucket bucket = MakeRandomBucket(130, num_rules, 0.4, 11);
  const TraceKernel kernel(bucket.refs, num_rules);
  ASSERT_EQ(kernel.num_blocks(), 3u);

  const auto supp = MakeSupport(num_rules, 8, 12);
  double weight_sum = 0.0;
  for (const auto& [rule, weight] : supp) weight_sum += weight;
  const double threshold = 0.5 * weight_sum - 1e-9;
  const TraceKernel::Support support = TraceKernel::Prepare(supp, threshold);

  // Candidates only in the middle block.
  std::vector<uint64_t> cmask(kernel.num_blocks(), 0);
  cmask[1] = 0x00FF00FF00FF00FFULL;
  std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
  TraceKernelStats stats;
  kernel.Match(support, cmask.data(), related.data(), &stats);

  EXPECT_EQ(related[0], 0ULL);
  EXPECT_EQ(related[2], 0ULL);
  EXPECT_GE(stats.blocks_pruned, 2);  // blocks 0 and 2 skipped outright
  EXPECT_LE(stats.records_scanned, 32);
  for (size_t r = 64; r < 128; ++r) {
    const bool candidate = (cmask[1] >> (r - 64)) & 1;
    const bool want =
        candidate && ScalarRelated(bucket.storage[r], supp, threshold,
                                   TraceKernel::Cmp::kGeThreshold, 0.0);
    const bool got = (related[1] >> (r - 64)) & 1;
    EXPECT_EQ(got, want) << "record " << r;
  }
}

TEST(TraceKernelTest, PlusEpsGeModeMatchesScalarPrefilter) {
  const int num_rules = 24;
  const RandomBucket bucket = MakeRandomBucket(100, num_rules, 0.5, 21);
  const TraceKernel kernel(bucket.refs, num_rules);
  const auto supp = MakeSupport(num_rules, 6, 22);
  double weight_sum = 0.0;
  for (const auto& [rule, weight] : supp) weight_sum += weight;
  const double theta = 0.4 * weight_sum;
  const double eps = 1e-9;

  const TraceKernel::Support support = TraceKernel::Prepare(
      supp, theta, TraceKernel::Cmp::kPlusEpsGe, eps);
  std::vector<uint64_t> related(kernel.num_blocks(), 0);
  kernel.Match(support, nullptr, related.data(), nullptr);
  for (size_t r = 0; r < bucket.storage.size(); ++r) {
    const bool want = ScalarRelated(bucket.storage[r], supp, theta,
                                    TraceKernel::Cmp::kPlusEpsGe, eps);
    const bool got = (related[r / 64] >> (r % 64)) & 1;
    EXPECT_EQ(got, want) << "record " << r;
  }
}

TEST(TraceKernelTest, EmptyKernelAndEmptySupport) {
  const TraceKernel empty(std::vector<const Bitset*>{}, 16);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.num_blocks(), 0u);
  const TraceKernel::Support support =
      TraceKernel::Prepare({{0, 1.0}}, 0.5);
  TraceKernelStats stats;
  EXPECT_EQ(empty.Match(support, nullptr, nullptr, &stats), 0u);

  // Empty support with threshold <= 0: every record matches (the scalar
  // comparison !(0 < threshold) accepts).
  const RandomBucket bucket = MakeRandomBucket(70, 16, 0.3, 31);
  const TraceKernel kernel(bucket.refs, 16);
  const TraceKernel::Support zero = TraceKernel::Prepare({}, -1e-9);
  std::vector<uint64_t> related(kernel.num_blocks(), 0);
  EXPECT_EQ(kernel.Match(zero, nullptr, related.data(), nullptr), 70u);
}

TEST(TraceKernelTest, ParseAndName) {
  EXPECT_EQ(ParseTraceKernelKind("legacy").value(), TraceKernelKind::kLegacy);
  EXPECT_EQ(ParseTraceKernelKind("blocked").value(),
            TraceKernelKind::kBlocked);
  EXPECT_FALSE(ParseTraceKernelKind("simd").ok());
  EXPECT_STREQ(TraceKernelKindName(TraceKernelKind::kLegacy), "legacy");
  EXPECT_STREQ(TraceKernelKindName(TraceKernelKind::kBlocked), "blocked");
}

TEST(TraceKernelTest, TraceIsaParseAndName) {
  EXPECT_EQ(ParseTraceIsa("scalar").value(), TraceIsa::kScalar);
  EXPECT_EQ(ParseTraceIsa("neon").value(), TraceIsa::kNeon);
  EXPECT_EQ(ParseTraceIsa("avx2").value(), TraceIsa::kAvx2);
  EXPECT_EQ(ParseTraceIsa("avx512").value(), TraceIsa::kAvx512);
  // "auto" is a CLI sentinel (keep the process-wide dispatch), not a tier.
  EXPECT_FALSE(ParseTraceIsa("auto").ok());
  EXPECT_FALSE(ParseTraceIsa("sse2").ok());
  for (const TraceIsa isa : AvailableTraceIsas()) {
    EXPECT_EQ(ParseTraceIsa(TraceIsaName(isa)).value(), isa);
    EXPECT_TRUE(TraceIsaAvailable(isa));
  }
  // The scalar tier exists everywhere and every list starts with it.
  const std::vector<TraceIsa> available = AvailableTraceIsas();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), TraceIsa::kScalar);
  EXPECT_TRUE(TraceIsaAvailable(BestAvailableTraceIsa()));
}

// Every available SIMD tier at every thread count must reproduce the
// forced-scalar serial sweep cell-for-cell: same related words, same match
// count, same stats (the ordered stripe commit makes records_scanned /
// blocks_pruned / exact_fallbacks schedule-independent).
TEST(TraceKernelTest, IsaThreadsMatrixIsBitIdentical) {
  const int num_rules = 96;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    // 1500 records: many blocks, so thread sharding gets real stripes.
    const RandomBucket bucket =
        MakeRandomBucket(1500, num_rules, 0.3, seed * 7 + 1);
    const TraceKernel kernel(bucket.refs, num_rules);
    const auto supp = MakeSupport(num_rules, 24, seed + 50);
    double weight_sum = 0.0;
    for (const auto& [rule, weight] : supp) weight_sum += weight;
    for (double tau : {0.4, 0.8}) {
      const double threshold = tau * weight_sum - 1e-9;
      const TraceKernel::Support support =
          TraceKernel::Prepare(supp, threshold);

      std::vector<uint64_t> baseline(kernel.num_blocks(), 0);
      TraceKernelStats base_stats;
      const size_t base_matched =
          kernel.Match(support, nullptr, baseline.data(), &base_stats,
                       {TraceIsa::kScalar, 1});

      for (const TraceIsa isa : AvailableTraceIsas()) {
        for (int threads : {1, 2, 8}) {
          std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
          TraceKernelStats stats;
          const size_t matched = kernel.Match(
              support, nullptr, related.data(), &stats, {isa, threads});
          EXPECT_EQ(matched, base_matched)
              << TraceIsaName(isa) << " t" << threads << " seed " << seed
              << " tau " << tau;
          EXPECT_EQ(related, baseline)
              << TraceIsaName(isa) << " t" << threads << " seed " << seed
              << " tau " << tau;
          EXPECT_EQ(stats.records_scanned, base_stats.records_scanned)
              << TraceIsaName(isa) << " t" << threads;
          EXPECT_EQ(stats.blocks_pruned, base_stats.blocks_pruned)
              << TraceIsaName(isa) << " t" << threads;
          EXPECT_EQ(stats.exact_fallbacks, base_stats.exact_fallbacks)
              << TraceIsaName(isa) << " t" << threads;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: blocked vs legacy must produce bit-identical
// TraceResults across the full configuration matrix —
// tau_w x dedup x Max-Miner x DP x threads.
// ---------------------------------------------------------------------------

struct DiffCase {
  double tau_w;
  bool use_dedup;
  bool use_max_miner;
  double dp_epsilon;
  int num_threads;
};

std::vector<DiffCase> FullMatrix() {
  std::vector<DiffCase> cases;
  for (double tau_w : {0.3, 0.7, 1.0}) {
    for (bool dedup : {false, true}) {
      for (bool max_miner : {false, true}) {
        for (double dp : {0.0, 2.0}) {
          for (int threads : {1, 8}) {
            cases.push_back({tau_w, dedup, max_miner, dp, threads});
          }
        }
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const DiffCase& c = info.param;
  std::string name = "tau" + std::to_string(static_cast<int>(c.tau_w * 10));
  name += c.use_dedup ? "_dedup" : "_nodedup";
  name += c.use_max_miner ? "_miner" : "_nominer";
  name += c.dp_epsilon > 0 ? "_dp" : "_nodp";
  name += "_t" + std::to_string(c.num_threads);
  return name;
}

class TraceKernelDifferentialTest
    : public ::testing::TestWithParam<DiffCase> {
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
    Rng rng(606);
    const Dataset all = GenerateSynthetic(spec, 700, rng);
    Rng prng(607);
    federation_ = new Federation(
        MakeFederation(PartitionSkewLabel(all, 4, 0.8, prng)));
    test_ = new Dataset(GenerateSynthetic(spec, 180, rng));

    LogicalNetConfig config;
    config.logic_layers = {{16, 16}};
    config.seed = 13;
    net_ = new LogicalNet(spec.schema, config);
    TrainConfig tc;
    tc.epochs = 12;
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

Federation* TraceKernelDifferentialTest::federation_ = nullptr;
Dataset* TraceKernelDifferentialTest::test_ = nullptr;
LogicalNet* TraceKernelDifferentialTest::net_ = nullptr;

// Everything except the blocked-only work counters must be *bit-identical*:
// EXPECT_EQ on doubles, no tolerance.
void ExpectBitIdentical(const TraceResult& blocked,
                        const TraceResult& legacy) {
  EXPECT_EQ(blocked.num_keys, legacy.num_keys);
  EXPECT_EQ(blocked.tau_w_checks, legacy.tau_w_checks);
  EXPECT_EQ(blocked.related_records, legacy.related_records);
  EXPECT_EQ(blocked.global_accuracy, legacy.global_accuracy);
  EXPECT_EQ(blocked.matched_accuracy, legacy.matched_accuracy);
  EXPECT_EQ(blocked.uncovered_tests, legacy.uncovered_tests);
  ASSERT_EQ(blocked.tests.size(), legacy.tests.size());
  for (size_t t = 0; t < legacy.tests.size(); ++t) {
    EXPECT_EQ(blocked.tests[t].predicted, legacy.tests[t].predicted);
    EXPECT_EQ(blocked.tests[t].correct, legacy.tests[t].correct);
    EXPECT_EQ(blocked.tests[t].support_size, legacy.tests[t].support_size);
    EXPECT_EQ(blocked.tests[t].related_count, legacy.tests[t].related_count)
        << "test " << t;
    EXPECT_EQ(blocked.tests[t].total_related, legacy.tests[t].total_related);
  }
  EXPECT_EQ(blocked.train_match_correct, legacy.train_match_correct);
  EXPECT_EQ(blocked.train_match_miss, legacy.train_match_miss);
  ASSERT_EQ(blocked.beneficial_rule_freq.size(),
            legacy.beneficial_rule_freq.size());
  for (size_t i = 0; i < legacy.beneficial_rule_freq.size(); ++i) {
    EXPECT_EQ(blocked.beneficial_rule_freq.data()[i],
              legacy.beneficial_rule_freq.data()[i])
        << "beneficial cell " << i;
    EXPECT_EQ(blocked.harmful_rule_freq.data()[i],
              legacy.harmful_rule_freq.data()[i])
        << "harmful cell " << i;
  }
  EXPECT_EQ(blocked.uncovered_rule_freq, legacy.uncovered_rule_freq);
  // The work counters are the one intentional difference: the blocked
  // kernel reports pruning; the legacy path reports zeros.
  EXPECT_EQ(legacy.records_scanned, 0);
  EXPECT_EQ(legacy.blocks_pruned, 0);
  EXPECT_LE(blocked.records_scanned, blocked.tau_w_checks);
}

TEST_P(TraceKernelDifferentialTest, BlockedMatchesLegacyBitIdentically) {
  const DiffCase& c = GetParam();
  TracerConfig config;
  config.tau_w = c.tau_w;
  config.use_dedup = c.use_dedup;
  config.use_max_miner = c.use_max_miner;
  config.dp_epsilon = c.dp_epsilon;
  config.num_threads = c.num_threads;

  TracerConfig legacy_config = config;
  legacy_config.kernel = TraceKernelKind::kLegacy;
  TracerConfig blocked_config = config;
  blocked_config.kernel = TraceKernelKind::kBlocked;

  // DP perturbation is seeded per participant (dp_seed + p), so the two
  // tracers draw identical randomized-response noise.
  const TraceResult legacy =
      ContributionTracer(net_, federation_, legacy_config).Trace(*test_);
  const TraceResult blocked =
      ContributionTracer(net_, federation_, blocked_config).Trace(*test_);
  ExpectBitIdentical(blocked, legacy);
}

INSTANTIATE_TEST_SUITE_P(Matrix, TraceKernelDifferentialTest,
                         ::testing::ValuesIn(FullMatrix()), CaseName);

// ---------------------------------------------------------------------------
// Query-engine leg: both kernel kinds must agree with each other and with
// the originating tracer on every stored test instance.
// ---------------------------------------------------------------------------

class TraceKernelQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
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
    Rng rng(71);
    const Dataset all = GenerateSynthetic(spec, 500, rng);
    Rng prng(72);
    Federation fed = MakeFederation(PartitionSkewSample(all, 4, 0.7, prng));
    Dataset test = GenerateSynthetic(spec, 140, rng);

    CtflConfig config;
    config.federated = false;
    config.central.epochs = 12;
    config.central.learning_rate = 0.05;
    config.net.logic_layers = {{10, 10}};
    config.net.seed = 7;
    config.tracer.tau_w = 0.85;
    config.bundle_out = TestTempPath("trace_kernel_query.ctflb");
    report_ = new CtflReport(RunCtfl(fed, test, config).value());
    ASSERT_TRUE(report_->bundle_status.ok()) << report_->bundle_status;
    engine_ = new store::QueryEngine(
        store::QueryEngine::Open(config.bundle_out).value());
    num_tests_ = test.size();
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete report_;
    engine_ = nullptr;
    report_ = nullptr;
  }

  static CtflReport* report_;
  static store::QueryEngine* engine_;
  static size_t num_tests_;
};

CtflReport* TraceKernelQueryTest::report_ = nullptr;
store::QueryEngine* TraceKernelQueryTest::engine_ = nullptr;
size_t TraceKernelQueryTest::num_tests_ = 0;

TEST_F(TraceKernelQueryTest, RelatedAgreesAcrossKernelsAndWithTracer) {
  for (size_t t = 0; t < num_tests_; ++t) {
    const TestTrace& expected = report_->trace.tests[t];
    for (bool use_index : {true, false}) {
      store::QueryOptions legacy;
      legacy.use_index = use_index;
      legacy.max_records = 1 << 20;
      legacy.kernel = TraceKernelKind::kLegacy;
      store::QueryOptions blocked = legacy;
      blocked.kernel = TraceKernelKind::kBlocked;

      const store::RelatedResult a = engine_->RelatedForTest(t, legacy);
      const store::RelatedResult b = engine_->RelatedForTest(t, blocked);
      EXPECT_EQ(a.related_count, expected.related_count) << "test " << t;
      EXPECT_EQ(b.related_count, expected.related_count) << "test " << t;
      EXPECT_EQ(a.total_related, b.total_related);
      EXPECT_EQ(a.tau_w_checks, b.tau_w_checks);
      ASSERT_EQ(a.records.size(), b.records.size());
      for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].participant, b.records[i].participant);
        EXPECT_EQ(a.records[i].local_index, b.records[i].local_index);
      }
      EXPECT_EQ(a.records_scanned, 0);
      EXPECT_LE(b.records_scanned, b.tau_w_checks);
    }
  }
}

TEST_F(TraceKernelQueryTest, EvaluateAgreesAcrossKernels) {
  for (double tau_w : {-1.0, 0.7}) {
    store::EvalOptions legacy;
    legacy.tau_w = tau_w;
    legacy.kernel = TraceKernelKind::kLegacy;
    store::EvalOptions blocked = legacy;
    blocked.kernel = TraceKernelKind::kBlocked;

    const store::QueryReport a = engine_->Evaluate(legacy);
    const store::QueryReport b = engine_->Evaluate(blocked);
    EXPECT_EQ(a.micro, b.micro);
    EXPECT_EQ(a.macro, b.macro);
    EXPECT_EQ(a.global_accuracy, b.global_accuracy);
    EXPECT_EQ(a.matched_accuracy, b.matched_accuracy);
    EXPECT_EQ(a.uncovered_tests, b.uncovered_tests);
    EXPECT_EQ(a.keys, b.keys);
    EXPECT_EQ(a.tau_w_checks, b.tau_w_checks);
    EXPECT_EQ(a.records_scanned, 0);
    EXPECT_LE(b.records_scanned, b.tau_w_checks);
    ASSERT_EQ(a.participants.size(), b.participants.size());
    for (size_t p = 0; p < a.participants.size(); ++p) {
      EXPECT_EQ(a.participants[p].useless_ratio,
                b.participants[p].useless_ratio);
      ASSERT_EQ(a.participants[p].beneficial.size(),
                b.participants[p].beneficial.size());
      for (size_t i = 0; i < a.participants[p].beneficial.size(); ++i) {
        EXPECT_EQ(a.participants[p].beneficial[i].rule,
                  b.participants[p].beneficial[i].rule);
        EXPECT_EQ(a.participants[p].beneficial[i].frequency,
                  b.participants[p].beneficial[i].frequency);
      }
    }
  }
  // At the originating parameters the blocked evaluation also reproduces
  // the originating run exactly.
  store::EvalOptions origin;
  origin.kernel = TraceKernelKind::kBlocked;
  const store::QueryReport report = engine_->Evaluate(origin);
  EXPECT_EQ(report.micro, report_->micro_scores);
  EXPECT_EQ(report.macro, report_->macro_scores);
}

}  // namespace
}  // namespace ctfl
