#ifndef CTFL_TESTS_RULE_ORACLE_H_
#define CTFL_TESTS_RULE_ORACLE_H_

// The formal rule-based model of paper Def. III.2, evaluated symbolically:
// each predicate tests an instance's raw feature value and each rule walks
// its formula, with no encoder and no logic layer. It is the oracle the
// net's binarized path (rule activations and the vote) must match on every
// instance (extraction_test).

#include <string>
#include <utility>
#include <vector>

#include "ctfl/rules/extraction.h"
#include "ctfl/util/bitset.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace oracle {

/// p(x): whether the instance's feature value passes the predicate.
inline bool Evaluate(const Predicate& p, const Instance& instance) {
  const double v = instance.values[p.feature];
  switch (p.op) {
    case Predicate::Op::kGt:
      return v > p.threshold;
    case Predicate::Op::kLt:
      return v < p.threshold;
    // Compared as doubles, as the encoder does: no float-to-int cast of a
    // value that may not be a category index.
    case Predicate::Op::kEq:
      return v == static_cast<double>(p.category);
    case Predicate::Op::kNeq:
      return v != static_cast<double>(p.category);
  }
  return false;
}

/// r(x): 1 if the instance fulfills the rule's logical formula.
inline bool Evaluate(const Rule& rule, const Instance& instance) {
  switch (rule.kind()) {
    case Rule::Kind::kTrue:
      return true;
    case Rule::Kind::kFalse:
      return false;
    case Rule::Kind::kAtom:
      return Evaluate(rule.atom(), instance);
    case Rule::Kind::kConj:
      for (const Rule& child : rule.children()) {
        if (!Evaluate(child, instance)) return false;
      }
      return true;
    case Rule::Kind::kDisj:
      for (const Rule& child : rule.children()) {
        if (Evaluate(child, instance)) return true;
      }
      return false;
  }
  return false;
}

/// One rule of a rule-based model, bound to the class it supports and its
/// importance weight (entries of (r+, w+) / (r-, w-)).
struct WeightedRule {
  Rule rule;
  int support_class = 1;  // 0 = negative, 1 = positive
  double weight = 1.0;
};

/// Classification by weighted voting of activated rules,
///   M(x) = 1[ w+ . r+(x) >= w- . r-(x) + bias ].
/// Rules keep their insertion index so activation Bitsets align with the
/// net's rule coordinates.
class RuleModel {
 public:
  /// Returns the index assigned to the rule.
  int AddRule(WeightedRule rule) {
    rules_.push_back(std::move(rule));
    return static_cast<int>(rules_.size()) - 1;
  }

  /// Vote offset (b_neg - b_pos of the net's vote layer); a positive bias
  /// makes the model lean negative.
  void SetBias(double bias) { bias_ = bias; }

  int num_rules() const { return static_cast<int>(rules_.size()); }

  /// Activation bitset r(x) over all rule indices.
  Bitset Activations(const Instance& instance) const {
    Bitset bits(rules_.size());
    for (size_t j = 0; j < rules_.size(); ++j) {
      if (Evaluate(rules_[j].rule, instance)) bits.Set(j);
    }
    return bits;
  }

  /// Sum of the weights of the activated rules supporting `support_class`.
  double Vote(const Instance& instance, int support_class) const {
    double vote = 0.0;
    for (const WeightedRule& wr : rules_) {
      if (wr.support_class == support_class && Evaluate(wr.rule, instance)) {
        vote += wr.weight;
      }
    }
    return vote;
  }
  double PositiveVote(const Instance& instance) const {
    return Vote(instance, 1);
  }
  double NegativeVote(const Instance& instance) const {
    return Vote(instance, 0);
  }

  /// Eq. (3): weighted vote with ties resolved positive.
  int Classify(const Instance& instance) const {
    return PositiveVote(instance) >= NegativeVote(instance) + bias_ ? 1 : 0;
  }

  /// Accuracy on a dataset (utility metric Eq. (1) for this model).
  double Accuracy(const Dataset& dataset) const {
    if (dataset.empty()) return 0.0;
    size_t correct = 0;
    for (const Instance& inst : dataset.instances()) {
      if (Classify(inst) == inst.label) ++correct;
    }
    return static_cast<double>(correct) / dataset.size();
  }

  /// Human-readable listing ("r3+ (w=0.820): capital-gain > 21000").
  std::string Describe(const FeatureSchema& schema) const {
    std::string out;
    for (int j = 0; j < num_rules(); ++j) {
      const WeightedRule& wr = rules_[j];
      out += StrFormat("r%d%s (w=%.3f): ", j,
                       wr.support_class == 1 ? "+" : "-", wr.weight);
      out += wr.rule.ToString(schema);
      out += "\n";
    }
    return out;
  }

 private:
  std::vector<WeightedRule> rules_;
  double bias_ = 0.0;
};

/// The RuleModel of the net's binarized form: one rule per coordinate.
inline RuleModel BuildRuleModel(const LogicalNet& net) {
  const ExtractionResult extraction = ExtractRules(net);
  RuleModel model;
  for (const ExtractedRule& er : extraction.rules) {
    const int index =
        model.AddRule({er.rule, er.support_class, er.weight});
    CTFL_CHECK(index == er.coordinate);
  }
  model.SetBias(extraction.bias);
  return model;
}

}  // namespace oracle
}  // namespace ctfl

#endif  // CTFL_TESTS_RULE_ORACLE_H_
