#include "ctfl/store/query_engine.h"

#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/interpret.h"
#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/store/snapshot.h"
#include "test_paths.h"
#include "trace_oracle.h"

namespace ctfl {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

SyntheticSpec TwoRuleSpec() {
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
  return spec;
}

CtflConfig FastConfig() {
  CtflConfig config;
  config.federated = false;
  config.central.epochs = 12;
  config.central.learning_rate = 0.05;
  config.net.logic_layers = {{10, 10}};
  config.net.seed = 7;
  config.tracer.tau_w = 0.85;
  return config;
}

/// A full run whose bundle was written through the pipeline itself. The
/// bundle files live in the test temp dir; the harness cleans them up.
struct Fixture {
  Federation fed;
  Dataset test;
  CtflReport report;
  std::string bundle_path;
};

Fixture MakeFixture(CtflConfig config, const std::string& name,
                    int participants = 4) {
  Rng rng(41);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 500, rng);
  Dataset test = GenerateSynthetic(spec, 140, rng);
  Rng prng(42);
  Federation fed =
      MakeFederation(PartitionSkewSample(all, participants, 0.7, prng));
  config.bundle_out = TempPath(name);
  CtflReport report = RunCtfl(fed, test, config).value();
  EXPECT_TRUE(report.bundle_status.ok()) << report.bundle_status;
  return Fixture{std::move(fed), std::move(test), std::move(report),
                 config.bundle_out};
}

TEST(QueryEngineTest, EvaluateReproducesOriginatingRunBitIdentically) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_origin.ctflb");
  const Result<QueryEngine> engine = QueryEngine::Open(fx.bundle_path);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(engine->origin_tau_w(), 0.85);
  EXPECT_EQ(engine->origin_delta(), 1);

  const QueryReport report = engine->Evaluate();
  EXPECT_EQ(report.tau_w, 0.85);
  EXPECT_EQ(report.delta, 1);
  // Bit-identical, not approximately equal: the engine replays the exact
  // floating-point accumulation order of core/allocation.
  EXPECT_EQ(report.micro, fx.report.micro_scores);
  EXPECT_EQ(report.macro, fx.report.macro_scores);
  EXPECT_EQ(report.global_accuracy, fx.report.trace.global_accuracy);
  EXPECT_EQ(report.matched_accuracy, fx.report.trace.matched_accuracy);
  EXPECT_EQ(report.uncovered_tests, fx.report.trace.uncovered_tests);
  EXPECT_EQ(report.keys, fx.report.trace.num_keys);
}

TEST(QueryEngineTest, RelatedAgreesWithTracerOnEveryTestInstance) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_related.ctflb");
  const QueryEngine engine = QueryEngine::Open(fx.bundle_path).value();

  for (size_t t = 0; t < fx.test.size(); ++t) {
    const TestTrace& expected = fx.report.trace.tests[t];

    // Stored-test path (persisted activation + prediction).
    const RelatedResult stored = engine.RelatedForTest(t);
    EXPECT_EQ(stored.predicted, expected.predicted);
    EXPECT_EQ(stored.support_size, expected.support_size);
    EXPECT_EQ(stored.related_count, expected.related_count);
    EXPECT_EQ(stored.total_related, expected.total_related);
    // Every lookup matches the whole class bucket; the kernel may prune
    // work inside it, never candidates.
    EXPECT_EQ(stored.tau_w_checks,
              stored.support_weight > 0.0 ? stored.bucket_size : 0);
    EXPECT_LE(stored.records_scanned, stored.tau_w_checks);
    EXPECT_EQ(stored.postings_scanned, 0);
    EXPECT_EQ(stored.candidates_pruned, 0);

    // Fresh-instance path (restored-model inference) must agree with it.
    const RelatedResult fresh = engine.Related(fx.test.instance(t));
    EXPECT_EQ(fresh.related_count, expected.related_count);
    EXPECT_EQ(fresh.support_weight, stored.support_weight);
  }
}

TEST(QueryEngineTest, MaterializedRecordsAreExactlyTheRelatedSet) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_records.ctflb");
  const QueryEngine engine = QueryEngine::Open(fx.bundle_path).value();

  for (size_t t = 0; t < fx.test.size(); ++t) {
    QueryOptions all;
    all.max_records = fx.fed.size() * 1000;
    const RelatedResult result = engine.RelatedForTest(t, all);
    ASSERT_EQ(result.records.size(), result.total_related);
    std::vector<int> counted(fx.fed.size(), 0);
    for (const RecordRef& ref : result.records) {
      ASSERT_GE(ref.participant, 0);
      ASSERT_LT(ref.participant, static_cast<int>(fx.fed.size()));
      ++counted[ref.participant];
      // Every materialized record really is related: its label matches the
      // prediction (Eq. 4 matches within the predicted class bucket).
      EXPECT_EQ(fx.fed[ref.participant].data.instance(ref.local_index).label,
                result.predicted);
    }
    EXPECT_EQ(counted, result.related_count);

    // Truncation keeps a prefix.
    QueryOptions few;
    few.max_records = 2;
    const RelatedResult truncated = engine.RelatedForTest(t, few);
    ASSERT_LE(truncated.records.size(), 2u);
    for (size_t i = 0; i < truncated.records.size(); ++i) {
      EXPECT_EQ(truncated.records[i].participant,
                result.records[i].participant);
      EXPECT_EQ(truncated.records[i].local_index,
                result.records[i].local_index);
    }
  }
}

std::vector<std::pair<int, int>> Refs(const RelatedResult& result) {
  std::vector<std::pair<int, int>> refs;
  for (const RecordRef& ref : result.records) {
    refs.emplace_back(ref.participant, ref.local_index);
  }
  return refs;
}

// The materialized records are the first max_records of the scalar
// oracle's related set in ascending (participant, local index), whatever
// order the class buckets keep their records in: every stored test and
// 240 fresh instances of a run on adult, whose 4 participants hold 4 to
// 432 records of a class (ranges that start mid-block and span several
// 64-record blocks), at three tau_w and three record budgets.
TEST(QueryEngineTest, RecordsAreTheOraclesFirstInUploadOrder) {
  CtflConfig config = FastConfig();
  config.net.logic_layers = {{16, 16}};
  config.central.epochs = 4;
  config.tracer.tau_w = 0.9;
  const Dataset all = MakeBenchmark("adult", 1200, 3).value();
  const Dataset test = MakeBenchmark("adult", 150, 5).value();
  const Dataset fresh = MakeBenchmark("adult", 240, 9).value();
  Rng rng(42);
  const Federation fed =
      MakeFederation(PartitionSkewSample(all, 4, 0.7, rng));
  config.bundle_out = TempPath("qe_order.ctflb");
  const CtflReport report = RunCtfl(fed, test, config).value();
  ASSERT_TRUE(report.bundle_status.ok()) << report.bundle_status;
  const QueryEngine engine = QueryEngine::Open(config.bundle_out).value();
  const BundleContent bundle = ReadBundle(config.bundle_out).value();
  std::vector<std::vector<uint8_t>> labels;
  std::vector<std::vector<Bitset>> uploads;
  for (const ParticipantRecords& records : bundle.participants) {
    labels.push_back(records.labels);
    uploads.push_back(records.activations);
  }
  const LogicalNet& model = engine.model();
  const double min_weight = bundle.meta.min_rule_weight;

  size_t compared = 0;
  for (const double tau_w : {engine.origin_tau_w(), 0.8, 1.0}) {
    for (const size_t max_records :
         {size_t{1}, size_t{3}, std::numeric_limits<size_t>::max()}) {
      SCOPED_TRACE("tau_w " + std::to_string(tau_w) + ", max_records " +
                   std::to_string(max_records));
      QueryOptions options;
      options.tau_w = tau_w;
      options.max_records = max_records;
      const auto expect = [&](const RelatedResult& got,
                              const Bitset& activation, int predicted) {
        const TraceLookup want =
            oracle::Lookup(model, labels, uploads, activation, predicted,
                           tau_w, min_weight, max_records);
        EXPECT_EQ(got.total_related, want.total_related);
        EXPECT_EQ(Refs(got), want.records);
        compared += want.records.size();
      };
      for (size_t t = 0; t < bundle.tests.size(); ++t) {
        SCOPED_TRACE("stored test " + std::to_string(t));
        expect(engine.RelatedForTest(t, options), bundle.tests[t].activation,
               bundle.tests[t].predicted);
      }
      for (size_t i = 0; i < fresh.size(); ++i) {
        SCOPED_TRACE("fresh instance " + std::to_string(i));
        const Instance& inst = fresh.instance(i);
        expect(engine.Related(inst, options), model.RuleActivations(inst),
               model.Predict(inst));
      }
    }
  }
  // The lookups really materialized records.
  EXPECT_GT(compared, 10000u);
}

/// FNV-1a over the 8 little-endian bytes of `v`, continuing from `h`.
uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Every stored test's lookup answer on the committed golden bundle (3
// participants, 360 training records, 120 tests), at the origin tau_w and
// at 0.8, pinned to its digest. The answer fields only: blocks_pruned and
// exact_fallbacks describe how the kernel worked and may change with it
// (DESIGN.md §13.2). Only a change meant to alter answers may re-pin it.
TEST(QueryEngineTest, GoldenBundleLookupDigestMatchesPinnedValue) {
  const QueryEngine engine =
      QueryEngine::Open(std::string(CTFL_TEST_DATA_DIR) +
                        "/golden_stream_v1.ctflb")
          .value();
  ASSERT_EQ(engine.num_participants(), 3);
  ASSERT_EQ(engine.bundle().tests.size(), 120u);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const double tau_w : {-1.0, 0.8}) {
    QueryOptions options;
    options.tau_w = tau_w;
    options.max_records = 5;
    for (size_t t = 0; t < engine.bundle().tests.size(); ++t) {
      const RelatedResult r = engine.RelatedForTest(t, options);
      digest = Mix(digest, static_cast<uint64_t>(r.predicted));
      digest = Mix(digest, static_cast<uint64_t>(r.support_size));
      digest = Mix(digest, std::bit_cast<uint64_t>(r.support_weight));
      for (const int count : r.related_count) {
        digest = Mix(digest, static_cast<uint64_t>(count));
      }
      digest = Mix(digest, r.total_related);
      digest = Mix(digest, static_cast<uint64_t>(r.tau_w_checks));
      digest = Mix(digest, r.records.size());
      for (const RecordRef& ref : r.records) {
        digest = Mix(digest, static_cast<uint64_t>(ref.participant));
        digest = Mix(digest, static_cast<uint64_t>(ref.local_index));
      }
    }
  }
  EXPECT_EQ(digest, 0xfeec548dd576d1c0ULL)
      << std::hex << "digest 0x" << digest;
}

void ExpectRulesEqual(const std::vector<RuleStat>& got,
                      const std::vector<RuleFrequency>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].rule, want[i].rule);
    EXPECT_EQ(got[i].frequency, want[i].weighted_frequency);
    EXPECT_FALSE(got[i].text.empty());
  }
}

TEST(QueryEngineTest, NewParametersMatchAFreshTracerRun) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_params.ctflb");
  const QueryEngine engine = QueryEngine::Open(fx.bundle_path).value();

  // Every QueryReport field against a from-scratch retrace, at the origin
  // tau_w and at a new one.
  for (const double tau_w : {0.85, 0.7}) {
    SCOPED_TRACE(tau_w);
    EvalOptions eval;
    eval.tau_w = tau_w;
    eval.delta = 2;
    eval.top_k = 4;
    const QueryReport report = engine.Evaluate(eval);

    CtflConfig config = FastConfig();
    config.tracer.tau_w = tau_w;
    const ContributionTracer tracer(&fx.report.model, &fx.fed,
                                    config.tracer);
    const TraceResult trace = tracer.Trace(fx.test);
    EXPECT_EQ(report.tau_w, tau_w);
    EXPECT_EQ(report.delta, 2);
    EXPECT_EQ(report.micro, MicroAllocation(trace));
    EXPECT_EQ(report.macro, MacroAllocation(trace, 2));
    EXPECT_EQ(report.global_accuracy, trace.global_accuracy);
    EXPECT_EQ(report.matched_accuracy, trace.matched_accuracy);
    const CollectionGuidance guidance = GuideDataCollection(trace, 4);
    EXPECT_EQ(report.uncovered_tests, guidance.uncovered_tests);
    ExpectRulesEqual(report.uncovered_rules, guidance.uncovered_rules);
    const std::vector<ParticipantProfile> profiles = BuildProfiles(trace, 4);
    ASSERT_EQ(report.participants.size(), profiles.size());
    for (size_t p = 0; p < profiles.size(); ++p) {
      SCOPED_TRACE(p);
      const ParticipantSummary& summary = report.participants[p];
      EXPECT_EQ(summary.participant, profiles[p].participant);
      EXPECT_EQ(summary.name, fx.fed[p].name);
      EXPECT_EQ(summary.data_size, profiles[p].data_size);
      ExpectRulesEqual(summary.beneficial, profiles[p].beneficial);
      ExpectRulesEqual(summary.harmful, profiles[p].harmful);
      EXPECT_EQ(summary.useless_ratio, profiles[p].useless_ratio);
    }
    EXPECT_EQ(report.keys, trace.num_keys);
    EXPECT_EQ(report.tau_w_checks, trace.tau_w_checks);
    EXPECT_EQ(report.records_scanned, trace.records_scanned);
    EXPECT_EQ(report.blocks_pruned, trace.blocks_pruned);
    EXPECT_EQ(report.exact_fallbacks, trace.exact_fallbacks);
    EXPECT_EQ(report.postings_scanned, 0);
    EXPECT_EQ(report.candidates_pruned, 0);

    for (size_t t = 0; t < fx.test.size(); ++t) {
      QueryOptions options;
      options.tau_w = tau_w;
      const RelatedResult related = engine.RelatedForTest(t, options);
      EXPECT_EQ(related.related_count, trace.tests[t].related_count);
      EXPECT_EQ(related.total_related, trace.tests[t].total_related);
    }
  }
}

TEST(QueryEngineTest, PrecomputedActivationTracerReproducesTrace) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_pretracer.ctflb");
  const BundleContent bundle = ReadBundle(fx.bundle_path).value();
  const LogicalNet model = RestoreModel(bundle).value();

  // Rehydrate the tracer from the bundle's persisted uploads — no
  // RuleActivations call on any training record.
  std::vector<std::vector<Bitset>> activations;
  activations.reserve(bundle.participants.size());
  for (const ParticipantRecords& records : bundle.participants) {
    activations.push_back(records.activations);
  }
  const ContributionTracer tracer(&model, &fx.fed, FastConfig().tracer,
                                  std::move(activations));
  EXPECT_EQ(tracer.train_activations().size(), fx.fed.size());
  const TraceResult trace = tracer.Trace(fx.test);

  EXPECT_EQ(MicroAllocation(trace), fx.report.micro_scores);
  EXPECT_EQ(MacroAllocation(trace, 1), fx.report.macro_scores);
  for (size_t t = 0; t < fx.test.size(); ++t) {
    EXPECT_EQ(trace.tests[t].related_count,
              fx.report.trace.tests[t].related_count);
  }
}

TEST(QueryEngineTest, SummariesMatchInterpretProfiles) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_profiles.ctflb");
  const QueryEngine engine = QueryEngine::Open(fx.bundle_path).value();

  EvalOptions eval;
  eval.top_k = 3;
  const QueryReport report = engine.Evaluate(eval);
  const std::vector<ParticipantProfile> profiles =
      BuildProfiles(fx.report.trace, 3);

  ASSERT_EQ(report.participants.size(), profiles.size());
  for (size_t p = 0; p < profiles.size(); ++p) {
    const ParticipantSummary& summary = report.participants[p];
    EXPECT_EQ(summary.participant, profiles[p].participant);
    EXPECT_EQ(summary.data_size, profiles[p].data_size);
    EXPECT_EQ(summary.useless_ratio, profiles[p].useless_ratio);
    ASSERT_EQ(summary.beneficial.size(), profiles[p].beneficial.size());
    for (size_t i = 0; i < summary.beneficial.size(); ++i) {
      EXPECT_EQ(summary.beneficial[i].rule, profiles[p].beneficial[i].rule);
      EXPECT_EQ(summary.beneficial[i].frequency,
                profiles[p].beneficial[i].weighted_frequency);
      EXPECT_FALSE(summary.beneficial[i].text.empty());
    }
    ASSERT_EQ(summary.harmful.size(), profiles[p].harmful.size());
    for (size_t i = 0; i < summary.harmful.size(); ++i) {
      EXPECT_EQ(summary.harmful[i].rule, profiles[p].harmful[i].rule);
      EXPECT_EQ(summary.harmful[i].frequency,
                profiles[p].harmful[i].weighted_frequency);
    }
  }

  // Uncovered guidance agrees with the interpret module too.
  const CollectionGuidance guidance =
      GuideDataCollection(fx.report.trace, 3);
  EXPECT_EQ(report.uncovered_tests, guidance.uncovered_tests);
  ASSERT_EQ(report.uncovered_rules.size(), guidance.uncovered_rules.size());
  for (size_t i = 0; i < guidance.uncovered_rules.size(); ++i) {
    EXPECT_EQ(report.uncovered_rules[i].rule,
              guidance.uncovered_rules[i].rule);
    EXPECT_EQ(report.uncovered_rules[i].frequency,
              guidance.uncovered_rules[i].weighted_frequency);
  }
}

TEST(QueryEngineTest, DpPerturbedRunStillReproducesBitIdentically) {
  CtflConfig config = FastConfig();
  config.tracer.dp_epsilon = 1.0;  // heavy randomized-response noise
  const Fixture fx = MakeFixture(config, "qe_dp.ctflb");
  const QueryEngine engine = QueryEngine::Open(fx.bundle_path).value();
  EXPECT_EQ(engine.bundle().meta.dp_epsilon, 1.0);

  // The bundle persisted the *perturbed* uploads, so queries replay the
  // originating DP run exactly — no fresh noise draw involved.
  const QueryReport report = engine.Evaluate();
  EXPECT_EQ(report.micro, fx.report.micro_scores);
  EXPECT_EQ(report.macro, fx.report.macro_scores);
  for (size_t t = 0; t < fx.test.size(); ++t) {
    EXPECT_EQ(engine.RelatedForTest(t).related_count,
              fx.report.trace.tests[t].related_count);
  }
}

TEST(QueryEngineTest, OpenRejectsMissingAndRelatedForTestBounds) {
  EXPECT_FALSE(QueryEngine::Open(TempPath("qe_missing.ctflb")).ok());

  const Fixture fx = MakeFixture(FastConfig(), "qe_bounds.ctflb");
  const QueryEngine engine = QueryEngine::Open(fx.bundle_path).value();
  // FromContent over the same decoded bundle behaves identically.
  const Result<QueryEngine> from_content =
      QueryEngine::FromContent(ReadBundle(fx.bundle_path).value());
  ASSERT_TRUE(from_content.ok()) << from_content.status();
  EXPECT_EQ(from_content->Evaluate().micro, engine.Evaluate().micro);
}

// Content whose shapes disagree — with each other or with the restored
// model — is an InvalidArgument from FromContent, never a tracer check.
TEST(QueryEngineTest, FromContentRejectsInconsistentShapes) {
  const Fixture fx = MakeFixture(FastConfig(), "qe_shapes.ctflb");
  const BundleContent good = ReadBundle(fx.bundle_path).value();
  ASSERT_TRUE(QueryEngine::FromContent(good).ok());

  const auto rejects = [](BundleContent content, const char* what) {
    const Result<QueryEngine> engine =
        QueryEngine::FromContent(std::move(content));
    ASSERT_FALSE(engine.ok()) << what;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << what;
  };
  BundleContent c = good;
  c.participants[0].labels.pop_back();
  rejects(c, "label count below the upload count");
  c = good;
  c.participants[1].labels[0] = 2;
  rejects(c, "label outside {0, 1}");
  c = good;
  c.participants[0].activations[0] = Bitset(3);
  rejects(c, "narrow upload");
  c = good;
  c.tests[0].activation = Bitset(good.num_rules() + 1);
  rejects(c, "wide test activation");
  c = good;
  c.tests[0].predicted = 2;
  rejects(c, "prediction outside {0, 1}");
  c = good;
  c.rules.pop_back();
  rejects(c, "rule count below the model's");
  c = good;
  c.rules[0].support_class = 1 - c.rules[0].support_class;
  rejects(c, "rule class disagrees with the model");
  c = good;
  c.rules[1].weight += 0.25;
  rejects(c, "rule weight disagrees with the model");
  c = good;
  c.meta.micro_scores.push_back(0.0);
  rejects(c, "score count disagrees with participants");
}

}  // namespace
}  // namespace store
}  // namespace ctfl
