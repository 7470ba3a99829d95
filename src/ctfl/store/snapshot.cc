#include "ctfl/store/snapshot.h"

#include <utility>

#include "ctfl/rules/extraction.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace store {

Result<BundleContent> BuildBundleContent(
    const LogicalNet& net, const Federation& federation, const Dataset& test,
    const std::vector<std::vector<Bitset>>& train_activations,
    const SnapshotOptions& options) {
  CTFL_SPAN("ctfl.bundle.build");
  if (train_activations.size() != federation.size()) {
    return Status::InvalidArgument(StrFormat(
        "train_activations holds %zu participants, federation has %zu",
        train_activations.size(), federation.size()));
  }
  for (size_t p = 0; p < federation.size(); ++p) {
    if (train_activations[p].size() != federation[p].data.size()) {
      return Status::InvalidArgument(StrFormat(
          "participant %zu: %zu activations vs %zu records", p,
          train_activations[p].size(), federation[p].data.size()));
    }
  }
  const size_t n = federation.size();
  if ((!options.micro_scores.empty() && options.micro_scores.size() != n) ||
      (!options.macro_scores.empty() && options.macro_scores.size() != n)) {
    return Status::InvalidArgument(
        "score vectors must be empty or one entry per participant");
  }

  BundleContent content;
  content.schema = net.schema();
  content.meta.tau_w = options.tau_w;
  content.meta.macro_delta = options.macro_delta;
  content.meta.min_rule_weight = options.min_rule_weight;
  content.meta.dp_epsilon = options.dp_epsilon;
  content.meta.micro_scores = options.micro_scores;
  content.meta.macro_scores = options.macro_scores;
  content.meta.global_accuracy = options.global_accuracy;
  content.meta.matched_accuracy = options.matched_accuracy;
  content.meta.schema_fingerprint = SchemaFingerprint(*content.schema);
  content.meta.failure_plan_fingerprint = options.failure_plan_fingerprint;
  for (const Participant& participant : federation) {
    content.meta.participant_names.push_back(participant.name);
  }

  // Model: config + bit-exact flat parameters.
  content.net_config = net.config();
  content.params = net.GetParameters();

  // Rules: the extracted (r+-, w+-) model with symbolic text.
  const ExtractionResult extraction = ExtractRules(net);
  content.rule_bias = extraction.bias;
  content.rules.reserve(extraction.rules.size());
  for (const ExtractedRule& er : extraction.rules) {
    RuleSnapshot snapshot;
    snapshot.support_class = er.support_class;
    snapshot.weight = er.weight;
    snapshot.text = er.rule.ToString(*content.schema);
    content.rules.push_back(std::move(snapshot));
  }

  // Train: labels + the exact activation bitsets the tracer matched
  // against (DP perturbation and all), so queries reproduce the run.
  content.participants.resize(n);
  for (size_t p = 0; p < n; ++p) {
    const Dataset& data = federation[p].data;
    ParticipantRecords& records = content.participants[p];
    records.labels.resize(data.size());
    records.activations = train_activations[p];
    for (size_t i = 0; i < data.size(); ++i) {
      records.labels[i] = static_cast<uint8_t>(data.instance(i).label);
      if (records.activations[i].size() !=
          static_cast<size_t>(net.num_rules())) {
        return Status::InvalidArgument(
            "activation bitset width does not match the model's rule count");
      }
    }
  }

  // Tests: deployed inference artifacts of the reserved test set.
  std::vector<uint8_t> predicted;
  std::vector<Bitset> activations;
  net.InferDataset(test, &predicted, &activations);
  content.tests.resize(test.size());
  for (size_t t = 0; t < test.size(); ++t) {
    TestRecord& record = content.tests[t];
    record.label = static_cast<uint8_t>(test.instance(t).label);
    record.predicted = predicted[t];
    record.activation = std::move(activations[t]);
  }

  return content;
}

}  // namespace store
}  // namespace ctfl
