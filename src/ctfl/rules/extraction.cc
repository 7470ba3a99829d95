#include "ctfl/rules/extraction.h"

#include <fstream>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace {

// Symbolic rule computed by output `node` of logic layer `layer` (with
// binarized weights). Layer 0 inputs are encoder predicates; deeper layers
// reference the previous layer's nodes.
Rule NodeRule(const LogicalNet& net, int layer, int node) {
  const LogicLayer& logic = net.logic_layers()[layer];
  const std::vector<int> inputs = logic.ActiveInputs(node);
  const bool is_conj = logic.IsConjNode(node);
  if (inputs.empty()) return is_conj ? Rule::True() : Rule::False();
  std::vector<Rule> children;
  children.reserve(inputs.size());
  for (int input : inputs) {
    if (layer == 0) {
      children.push_back(
          Rule::Atom(Predicate::FromEncoded(net.encoder().predicate(input))));
    } else {
      children.push_back(NodeRule(net, layer - 1, input));
    }
  }
  return is_conj ? Rule::Conj(std::move(children))
                 : Rule::Disj(std::move(children));
}

}  // namespace

ExtractionResult ExtractRules(const LogicalNet& net) {
  CTFL_SPAN("ctfl.rules.extract");
  static telemetry::Counter& extracted_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.rules.extracted");
  ExtractionResult result;
  result.rules.reserve(net.num_rules());
  for (int j = 0; j < net.num_rules(); ++j) {
    ExtractedRule er;
    er.coordinate = j;
    const auto [layer, index] = net.RuleSource(j);
    if (layer < 0) {
      er.rule = Rule::Atom(Predicate::FromEncoded(net.encoder().predicate(index)));
    } else {
      er.rule = NodeRule(net, layer, index);
    }
    er.support_class = net.RuleClass(j);
    er.weight = net.RuleWeight(j);
    result.rules.push_back(std::move(er));
  }
  result.bias = net.linear().bias()(0, 0) - net.linear().bias()(0, 1);
  extracted_counter.Add(static_cast<int64_t>(result.rules.size()));
  return result;
}

Status ExportRulesText(const LogicalNet& net, const std::string& path,
                       double min_weight) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  const ExtractionResult extraction = ExtractRules(net);
  out << "# CTFL rule export; bias (neg - pos) = " << extraction.bias
      << "\n";
  int64_t kept = 0;
  int64_t pruned = 0;
  for (const ExtractedRule& er : extraction.rules) {
    if (er.weight < min_weight) {
      ++pruned;
      continue;
    }
    ++kept;
    out << "r" << er.coordinate << (er.support_class == 1 ? "+" : "-")
        << " w=" << StrFormat("%.6f", er.weight) << " : "
        << er.rule.ToString(*net.schema()) << "\n";
  }
  telemetry::MetricsRegistry::Global()
      .GetCounter("ctfl.rules.export_kept")
      .Add(kept);
  telemetry::MetricsRegistry::Global()
      .GetCounter("ctfl.rules.export_pruned")
      .Add(pruned);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace ctfl
