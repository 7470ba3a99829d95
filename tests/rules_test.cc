#include <gtest/gtest.h>

#include "rule_oracle.h"

namespace ctfl {
namespace {

using oracle::Evaluate;
using oracle::RuleModel;

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("capital-gain", 0, 100000),
          FeatureSchema::Continuous("work-hours", 0, 100),
          FeatureSchema::Discrete("marital-status",
                                  {"married", "never", "divorced"}),
      },
      "low", "high");
}

Instance MakeInstance(double gain, double hours, int marital) {
  Instance inst;
  inst.values = {gain, hours, static_cast<double>(marital)};
  return inst;
}

Predicate Gt(int f, double v) {
  Predicate p;
  p.feature = f;
  p.op = Predicate::Op::kGt;
  p.threshold = v;
  return p;
}

Predicate Lt(int f, double v) {
  Predicate p;
  p.feature = f;
  p.op = Predicate::Op::kLt;
  p.threshold = v;
  return p;
}

Predicate Eq(int f, int c) {
  Predicate p;
  p.feature = f;
  p.op = Predicate::Op::kEq;
  p.category = c;
  return p;
}

TEST(PredicateTest, EvaluatesAllOps) {
  const Instance inst = MakeInstance(5000, 40, 1);
  EXPECT_TRUE(Evaluate(Gt(0, 4000), inst));
  EXPECT_FALSE(Evaluate(Gt(0, 5000), inst));
  EXPECT_TRUE(Evaluate(Lt(1, 41), inst));
  EXPECT_TRUE(Evaluate(Eq(2, 1), inst));
  Predicate neq = Eq(2, 0);
  neq.op = Predicate::Op::kNeq;
  EXPECT_TRUE(Evaluate(neq, inst));
}

TEST(PredicateTest, ToStringIsReadable) {
  const SchemaPtr schema = MakeSchema();
  EXPECT_EQ(Gt(0, 21000).ToString(*schema), "capital-gain > 21000");
  EXPECT_EQ(Eq(2, 1).ToString(*schema), "marital-status = never");
}

// The paper's example rule r2-: work-hours > 14 OR marital-status = never.
TEST(RuleTest, PaperExampleDisjunction) {
  const Rule r2_neg = Rule::Disj({Rule::Atom(Gt(1, 14)), Rule::Atom(Eq(2, 1))});
  EXPECT_TRUE(Evaluate(r2_neg, MakeInstance(0, 20, 0)));   // hours > 14
  EXPECT_TRUE(Evaluate(r2_neg, MakeInstance(0, 10, 1)));   // never married
  EXPECT_FALSE(Evaluate(r2_neg, MakeInstance(0, 10, 0)));  // neither
  const SchemaPtr schema = MakeSchema();
  EXPECT_EQ(r2_neg.ToString(*schema),
            "(work-hours > 14 v marital-status = never)");
}

TEST(RuleTest, NestedCompoundRules) {
  // (gain > 21k) AND (hours > 14 OR never-married).
  const Rule compound = Rule::Conj(
      {Rule::Atom(Gt(0, 21000)),
       Rule::Disj({Rule::Atom(Gt(1, 14)), Rule::Atom(Eq(2, 1))})});
  EXPECT_TRUE(Evaluate(compound, MakeInstance(30000, 20, 0)));
  EXPECT_FALSE(Evaluate(compound, MakeInstance(30000, 10, 0)));
  EXPECT_FALSE(Evaluate(compound, MakeInstance(10000, 20, 0)));
}

TEST(RuleTest, SingleChildCollapses) {
  const Rule r = Rule::Conj({Rule::Atom(Gt(0, 1))});
  EXPECT_EQ(r.kind(), Rule::Kind::kAtom);
}

TEST(RuleTest, ConstantsEvaluate) {
  const Instance inst = MakeInstance(0, 0, 0);
  EXPECT_TRUE(Evaluate(Rule::True(), inst));
  EXPECT_FALSE(Evaluate(Rule::False(), inst));
  EXPECT_EQ(Rule::True().ToString(*MakeSchema()), "true");
}

// Paper Example III.2: rule-based model classification by weighted voting.
TEST(RuleModelTest, PaperExampleClassification) {
  RuleModel model;
  model.AddRule({Rule::Atom(Gt(0, 21000)), 1, 1.0});
  model.AddRule({Rule::Atom(Gt(1, 50)), 1, 1.0});
  model.AddRule({Rule::Atom(Lt(0, 5000)), 0, 1.0});
  model.AddRule(
      {Rule::Disj({Rule::Atom(Gt(1, 14)), Rule::Atom(Eq(2, 1))}), 0, 0.5});

  // Activates r2+ (hours 60 > 50) and r2- (hours > 14): 1 vs 0.5 -> pos.
  const Instance x1 = MakeInstance(10000, 60, 0);
  EXPECT_DOUBLE_EQ(model.PositiveVote(x1), 1.0);
  EXPECT_DOUBLE_EQ(model.NegativeVote(x1), 0.5);
  EXPECT_EQ(model.Classify(x1), 1);

  // Activates r1- and r2- only -> neg.
  const Instance x2 = MakeInstance(1000, 20, 1);
  EXPECT_EQ(model.Classify(x2), 0);
}

TEST(RuleModelTest, ActivationBitsetIndicesAlign) {
  RuleModel model;
  const int a = model.AddRule({Rule::Atom(Gt(0, 100)), 1, 1.0});
  const int b = model.AddRule({Rule::Atom(Lt(1, 50)), 0, 1.0});
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  const Bitset bits = model.Activations(MakeInstance(200, 10, 0));
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(1));
  const Bitset bits2 = model.Activations(MakeInstance(50, 90, 0));
  EXPECT_FALSE(bits2.Test(0));
  EXPECT_FALSE(bits2.Test(1));
}

TEST(RuleModelTest, BiasShiftsDecision) {
  RuleModel model;
  model.AddRule({Rule::True(), 1, 1.0});
  const Instance x = MakeInstance(0, 0, 0);
  EXPECT_EQ(model.Classify(x), 1);
  model.SetBias(2.0);  // require positive vote >= negative + 2
  EXPECT_EQ(model.Classify(x), 0);
}

TEST(RuleModelTest, TieGoesPositive) {
  RuleModel model;
  model.AddRule({Rule::True(), 1, 1.0});
  model.AddRule({Rule::True(), 0, 1.0});
  EXPECT_EQ(model.Classify(MakeInstance(0, 0, 0)), 1);
}

TEST(RuleModelTest, AccuracyOnLabeledData) {
  RuleModel model;
  model.AddRule({Rule::Atom(Gt(0, 500)), 1, 1.0});
  model.SetBias(0.5);  // positive only when the rule fires
  Dataset d(MakeSchema());
  for (int i = 0; i < 10; ++i) {
    Instance inst = MakeInstance(i * 100.0 + 1, 0, 0);
    inst.label = i >= 5 ? 1 : 0;
    d.AppendUnchecked(std::move(inst));
  }
  EXPECT_DOUBLE_EQ(model.Accuracy(d), 1.0);
}

TEST(RuleModelTest, DescribeListsRules) {
  RuleModel model;
  model.AddRule({Rule::Atom(Gt(0, 21000)), 1, 0.75});
  const std::string text = model.Describe(*MakeSchema());
  EXPECT_NE(text.find("r0+"), std::string::npos);
  EXPECT_NE(text.find("capital-gain > 21000"), std::string::npos);
  EXPECT_NE(text.find("0.75"), std::string::npos);
}

}  // namespace
}  // namespace ctfl
