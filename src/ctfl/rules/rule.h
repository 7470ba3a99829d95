#ifndef CTFL_RULES_RULE_H_
#define CTFL_RULES_RULE_H_

#include <string>
#include <vector>

#include "ctfl/rules/predicate.h"

namespace ctfl {

/// A classification rule (paper Def. III.1): a logical formula over atomic
/// predicates built from conjunction, disjunction, and (at the leaves)
/// negation-free atoms. Compound rules nest recursively.
class Rule {
 public:
  enum class Kind { kAtom, kConj, kDisj, kTrue, kFalse };

  /// Atomic rule.
  static Rule Atom(Predicate predicate);
  /// Conjunction / disjunction of child rules (must be non-empty).
  static Rule Conj(std::vector<Rule> children);
  static Rule Disj(std::vector<Rule> children);
  /// Constant rules: the empty conjunction (always activated) and the
  /// empty disjunction (never activated) — produced by logic nodes whose
  /// binarized weights select no inputs.
  static Rule True();
  static Rule False();

  Kind kind() const { return kind_; }
  const Predicate& atom() const { return atom_; }
  const std::vector<Rule>& children() const { return children_; }

  /// e.g. "(work-hours > 14 v marital-status = never)".
  std::string ToString(const FeatureSchema& schema) const;

 private:
  Rule() = default;

  Kind kind_ = Kind::kAtom;
  Predicate atom_;
  std::vector<Rule> children_;
};

}  // namespace ctfl

#endif  // CTFL_RULES_RULE_H_
