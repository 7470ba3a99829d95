#ifndef CTFL_RULES_EXTRACTION_H_
#define CTFL_RULES_EXTRACTION_H_

#include <vector>

#include "ctfl/nn/logical_net.h"
#include "ctfl/rules/rule.h"

namespace ctfl {

/// One rule coordinate of the trained net, rendered symbolically.
struct ExtractedRule {
  /// Index in the net's rule space (aligns with RuleActivations bitsets).
  int coordinate = 0;
  Rule rule = Rule::True();
  int support_class = 1;
  double weight = 0.0;
};

struct ExtractionResult {
  /// rules[j] describes rule coordinate j (all coordinates present).
  std::vector<ExtractedRule> rules;
  /// Vote offset: b_neg - b_pos of the vote layer.
  double bias = 0.0;
};

/// Reads the binarized logic weights of a trained LogicalNet and rebuilds
/// every rule coordinate as a symbolic Rule: skip predicates become atoms;
/// conjunction / disjunction nodes expand recursively through earlier
/// layers down to encoder predicates. Support class and weight come from
/// the vote layer (Def. III.2).
ExtractionResult ExtractRules(const LogicalNet& net);

/// Writes the extracted symbolic rules of a trained model as a readable
/// report (one rule per line with class and weight) — the artifact a
/// federation would publish to participants. Rules below `min_weight`
/// are omitted.
Status ExportRulesText(const LogicalNet& net, const std::string& path,
                       double min_weight = 1e-3);

}  // namespace ctfl

#endif  // CTFL_RULES_EXTRACTION_H_
