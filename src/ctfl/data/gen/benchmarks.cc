#include "ctfl/data/gen/benchmarks.h"

#include <memory>

#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/util/logging.h"

namespace ctfl {
namespace {

using Op = GtPredicate::Op;
using Kind = FeatureSampler::Kind;

FeatureSampler Uniform() { return FeatureSampler{Kind::kUniform, 0, 0, {}}; }
FeatureSampler NormalS(double mean, double sd) {
  return FeatureSampler{Kind::kNormal, mean, sd, {}};
}
FeatureSampler Spike(double p_zero) {
  return FeatureSampler{Kind::kSpikeUniform, p_zero, 0, {}};
}
FeatureSampler Cat(std::vector<double> weights) {
  return FeatureSampler{Kind::kCategorical, 0, 0, std::move(weights)};
}
FeatureSampler CatUniform() {
  return FeatureSampler{Kind::kCategorical, 0, 0, {}};
}

GtPredicate Pred(int feature, Op op, double value) {
  return GtPredicate{feature, op, value};
}

// ---------------------------------------------------------------------------
// adult — income > 50k prediction. 14 features (6 continuous, 8 discrete),
// positive rate ~0.24, achievable accuracy ~0.85. The planted rules echo the
// frequently-activated rules the paper's Table V reports (capital-gain,
// education-num, marital-status/hours, age/work-class).
// ---------------------------------------------------------------------------
SyntheticSpec AdultSpec() {
  std::vector<FeatureSpec> f;
  f.push_back(FeatureSchema::Continuous("age", 17, 90));                // 0
  f.push_back(FeatureSchema::Discrete(
      "work-class",
      {"private", "self-emp", "federal-gov", "state-gov", "local-gov",
       "other"}));                                                      // 1
  f.push_back(FeatureSchema::Continuous("fnlwgt", 12000, 1500000));    // 2
  f.push_back(FeatureSchema::Discrete(
      "education", {"hs-grad", "some-college", "bachelors", "masters",
                    "doctorate", "other"}));                            // 3
  f.push_back(FeatureSchema::Continuous("education-num", 1, 16));      // 4
  f.push_back(FeatureSchema::Discrete(
      "marital-status", {"married", "never", "divorced", "widowed"}));  // 5
  f.push_back(FeatureSchema::Discrete(
      "occupation",
      {"exec", "prof", "tech", "sales", "craft", "service", "other"}));  // 6
  f.push_back(FeatureSchema::Discrete(
      "relationship",
      {"husband", "wife", "own-child", "not-in-family", "other"}));     // 7
  f.push_back(
      FeatureSchema::Discrete("race", {"white", "black", "asian", "other"}));
  f.push_back(FeatureSchema::Discrete("sex", {"male", "female"}));     // 9
  f.push_back(FeatureSchema::Continuous("capital-gain", 0, 99999));    // 10
  f.push_back(FeatureSchema::Continuous("capital-loss", 0, 4356));     // 11
  f.push_back(FeatureSchema::Continuous("hours-per-week", 1, 99));     // 12
  f.push_back(
      FeatureSchema::Discrete("native-country", {"us", "mexico", "other"}));

  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(std::move(f), "<=50k", ">50k");
  spec.samplers = {
      NormalS(38, 13),          // age
      Cat({0.70, 0.08, 0.04, 0.05, 0.06, 0.07}),
      NormalS(190000, 105000),  // fnlwgt
      Cat({0.32, 0.22, 0.16, 0.06, 0.02, 0.22}),
      NormalS(10, 2.6),         // education-num
      Cat({0.46, 0.33, 0.14, 0.07}),
      CatUniform(),             // occupation
      Cat({0.40, 0.05, 0.16, 0.26, 0.13}),
      Cat({0.85, 0.10, 0.03, 0.02}),
      Cat({0.67, 0.33}),        // sex
      Spike(0.92),              // capital-gain
      Spike(0.95),              // capital-loss
      NormalS(40, 12),          // hours-per-week
      Cat({0.90, 0.02, 0.08}),
  };
  // Positive (>50k) evidence.
  spec.rules.push_back({{Pred(10, Op::kGt, 21000)}, 1, 3.0});
  spec.rules.push_back({{Pred(4, Op::kGt, 15)}, 1, 2.0});
  spec.rules.push_back(
      {{Pred(0, Op::kGt, 55), Pred(4, Op::kGt, 12)}, 1, 1.5});
  spec.rules.push_back(
      {{Pred(5, Op::kEq, 0), Pred(12, Op::kGt, 45), Pred(4, Op::kGt, 11)},
       1,
       1.5});
  spec.rules.push_back(
      {{Pred(1, Op::kEq, 3), Pred(4, Op::kGt, 13)}, 1, 1.0});
  // Negative (<=50k) evidence.
  spec.rules.push_back(
      {{Pred(10, Op::kLt, 5000), Pred(11, Op::kLt, 1000)}, 0, 1.0});
  spec.rules.push_back(
      {{Pred(5, Op::kEq, 1), Pred(12, Op::kGt, 14)}, 0, 1.5});
  spec.rules.push_back({{Pred(4, Op::kLt, 9)}, 0, 1.5});
  spec.rules.push_back({{Pred(0, Op::kLt, 25)}, 0, 1.0});
  spec.label_noise = 0.14;
  spec.base_positive_rate = 0.24;
  return spec;
}

// ---------------------------------------------------------------------------
// bank — term-deposit subscription. 16 mixed features, positive rate ~0.12,
// achievable accuracy ~0.89.
// ---------------------------------------------------------------------------
SyntheticSpec BankSpec() {
  std::vector<FeatureSpec> f;
  f.push_back(FeatureSchema::Continuous("age", 18, 95));                // 0
  f.push_back(FeatureSchema::Discrete(
      "job", {"admin", "blue-collar", "technician", "services", "management",
              "retired", "student", "other"}));                         // 1
  f.push_back(FeatureSchema::Discrete("marital",
                                      {"married", "single", "divorced"}));
  f.push_back(FeatureSchema::Discrete(
      "education", {"primary", "secondary", "tertiary", "unknown"}));   // 3
  f.push_back(FeatureSchema::Discrete("default", {"no", "yes"}));      // 4
  f.push_back(FeatureSchema::Continuous("balance", -8000, 102000));    // 5
  f.push_back(FeatureSchema::Discrete("housing", {"yes", "no"}));      // 6
  f.push_back(FeatureSchema::Discrete("loan", {"no", "yes"}));         // 7
  f.push_back(FeatureSchema::Discrete("contact",
                                      {"cellular", "telephone", "unknown"}));
  f.push_back(FeatureSchema::Continuous("day", 1, 31));                // 9
  f.push_back(FeatureSchema::Discrete(
      "month", {"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug",
                "sep", "oct", "nov", "dec"}));                          // 10
  f.push_back(FeatureSchema::Continuous("duration", 0, 4918));         // 11
  f.push_back(FeatureSchema::Continuous("campaign", 1, 63));           // 12
  f.push_back(FeatureSchema::Continuous("pdays", -1, 871));            // 13
  f.push_back(FeatureSchema::Continuous("previous", 0, 275));          // 14
  f.push_back(FeatureSchema::Discrete(
      "poutcome", {"unknown", "failure", "success", "other"}));         // 15

  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(std::move(f), "no", "yes");
  spec.samplers = {
      NormalS(41, 11),
      CatUniform(),
      Cat({0.60, 0.28, 0.12}),
      Cat({0.15, 0.51, 0.29, 0.05}),
      Cat({0.98, 0.02}),
      NormalS(1400, 3000),
      Cat({0.56, 0.44}),
      Cat({0.84, 0.16}),
      Cat({0.65, 0.06, 0.29}),
      Uniform(),
      CatUniform(),
      FeatureSampler{Kind::kExponential, 260, 0, {}},
      FeatureSampler{Kind::kExponential, 2.0, 0, {}},
      Spike(0.82),
      Spike(0.82),
      Cat({0.82, 0.11, 0.03, 0.04}),
  };
  // Positive (subscribes) evidence — rare events, matching the real
  // dataset's ~0.12 subscription rate.
  spec.rules.push_back({{Pred(11, Op::kGt, 800)}, 1, 2.5});
  spec.rules.push_back({{Pred(15, Op::kEq, 2)}, 1, 2.5});
  spec.rules.push_back(
      {{Pred(5, Op::kGt, 6000), Pred(6, Op::kEq, 1)}, 1, 1.5});
  spec.rules.push_back(
      {{Pred(0, Op::kGt, 62), Pred(11, Op::kGt, 300)}, 1, 1.5});
  // Negative evidence.
  spec.rules.push_back({{Pred(11, Op::kLt, 150)}, 0, 2.0});
  spec.rules.push_back({{Pred(12, Op::kGt, 5)}, 0, 1.5});
  spec.rules.push_back({{Pred(4, Op::kEq, 1)}, 0, 1.5});
  spec.rules.push_back(
      {{Pred(7, Op::kEq, 1), Pred(5, Op::kLt, 500)}, 0, 1.0});
  spec.label_noise = 0.08;
  spec.base_positive_rate = 0.06;
  return spec;
}

// ---------------------------------------------------------------------------
// dota2 — match-winner prediction from draft. 116 discrete features
// (cluster/mode/type + 113 hero indicators in {dire, none, radiant}),
// positive rate ~0.53, achievable accuracy ~0.58 (the paper's hardest,
// lowest-signal task). Rules are weak pairwise hero synergies generated
// deterministically from a fixed seed.
// ---------------------------------------------------------------------------
SyntheticSpec Dota2Spec() {
  constexpr int kNumHeroes = 113;
  std::vector<FeatureSpec> f;
  f.push_back(FeatureSchema::Discrete(
      "cluster", {"us-west", "us-east", "europe", "sea", "china"}));    // 0
  f.push_back(FeatureSchema::Discrete("mode", {"all-pick", "captains",
                                               "random-draft"}));       // 1
  f.push_back(FeatureSchema::Discrete("type", {"ranked", "casual",
                                               "tournament"}));         // 2
  for (int h = 0; h < kNumHeroes; ++h) {
    f.push_back(FeatureSchema::Discrete("hero-" + std::to_string(h + 1),
                                        {"dire", "none", "radiant"}));
  }

  SyntheticSpec spec;
  spec.schema =
      std::make_shared<FeatureSchema>(std::move(f), "dire-wins",
                                      "radiant-wins");
  spec.samplers.push_back(CatUniform());
  spec.samplers.push_back(Cat({0.70, 0.20, 0.10}));
  spec.samplers.push_back(Cat({0.55, 0.40, 0.05}));
  for (int h = 0; h < kNumHeroes; ++h) {
    // ~5 heroes drafted per side in expectation (113 * 0.045).
    spec.samplers.push_back(Cat({0.045, 0.91, 0.045}));
  }

  // Weak synergy/strength rules, mirrored across sides so the task is
  // symmetric: a strong hero helps whichever side drafts it.
  Rng rule_rng(0xd07a2ULL);
  constexpr int kHeroBase = 3;
  constexpr int kDire = 0, kRadiant = 2;
  for (int i = 0; i < 24; ++i) {
    const int hero = static_cast<int>(rule_rng.UniformInt(kNumHeroes));
    spec.rules.push_back(
        {{Pred(kHeroBase + hero, Op::kEq, kRadiant)}, 1, 0.6});
    spec.rules.push_back({{Pred(kHeroBase + hero, Op::kEq, kDire)}, 0, 0.6});
  }
  for (int i = 0; i < 24; ++i) {
    const int a = static_cast<int>(rule_rng.UniformInt(kNumHeroes));
    int b = static_cast<int>(rule_rng.UniformInt(kNumHeroes));
    if (b == a) b = (b + 1) % kNumHeroes;
    spec.rules.push_back({{Pred(kHeroBase + a, Op::kEq, kRadiant),
                           Pred(kHeroBase + b, Op::kEq, kRadiant)},
                          1,
                          1.2});
    spec.rules.push_back({{Pred(kHeroBase + a, Op::kEq, kDire),
                           Pred(kHeroBase + b, Op::kEq, kDire)},
                          0,
                          1.2});
  }
  spec.label_noise = 0.35;
  spec.base_positive_rate = 0.53;
  return spec;
}

}  // namespace

size_t BenchmarkDefaultSize(const std::string& name) {
  if (name == "tic-tac-toe") return 958;
  if (name == "adult") return 32561;
  if (name == "bank") return 45211;
  if (name == "dota2") return 102944;
  return 0;
}

Result<SyntheticSpec> BenchmarkSpec(const std::string& name) {
  if (name == "adult") return AdultSpec();
  if (name == "bank") return BankSpec();
  if (name == "dota2") return Dota2Spec();
  return Status::NotFound("no synthetic spec for dataset " + name);
}

Result<SchemaPtr> BenchmarkSchema(const std::string& name) {
  if (name == "tic-tac-toe") return TicTacToeSchema();
  CTFL_ASSIGN_OR_RETURN(SyntheticSpec spec, BenchmarkSpec(name));
  return spec.schema;
}

Result<Dataset> MakeBenchmark(const std::string& name, size_t n,
                              uint64_t seed) {
  if (name == "tic-tac-toe") return GenerateTicTacToe();
  CTFL_ASSIGN_OR_RETURN(SyntheticSpec spec, BenchmarkSpec(name));
  if (n == 0) n = BenchmarkDefaultSize(name);
  Rng rng(seed);
  return GenerateSynthetic(spec, n, rng);
}

}  // namespace ctfl
