#include "ctfl/store/query_engine.h"

#include <bit>
#include <utility>

#include "ctfl/core/allocation.h"
#include "ctfl/core/interpret.h"
#include "ctfl/core/tracer.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace store {
namespace {

telemetry::Counter& RelatedCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global()
                                     .GetCounter("ctfl.query.related_lookups");
  return c;
}
telemetry::Counter& ChecksCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global()
                                     .GetCounter("ctfl.query.tau_w_checks");
  return c;
}

/// Every shape the tracer relies on: one 0/1 label per upload, every
/// activation as wide as the rule count, and 0/1 test labels and
/// predictions.
Status ValidateShapes(const BundleContent& content) {
  const size_t n = content.participants.size();
  if (!content.meta.micro_scores.empty() &&
      content.meta.micro_scores.size() != n) {
    return Status::InvalidArgument(
        "bundle micro score count disagrees with participants");
  }
  if (!content.meta.macro_scores.empty() &&
      content.meta.macro_scores.size() != n) {
    return Status::InvalidArgument(
        "bundle macro score count disagrees with participants");
  }
  const size_t width = content.rules.size();
  for (size_t p = 0; p < n; ++p) {
    const ParticipantRecords& records = content.participants[p];
    if (records.labels.size() != records.activations.size()) {
      return Status::InvalidArgument(StrFormat(
          "bundle participant %zu: %zu labels vs %zu activations", p,
          records.labels.size(), records.activations.size()));
    }
    for (uint8_t label : records.labels) {
      if (label > 1) {
        return Status::InvalidArgument(StrFormat(
            "bundle participant %zu has a label out of range", p));
      }
    }
    for (const Bitset& activation : records.activations) {
      if (activation.size() != width) {
        return Status::InvalidArgument(StrFormat(
            "bundle participant %zu has an activation of width %zu, not "
            "the rule count %zu",
            p, activation.size(), width));
      }
    }
  }
  for (const TestRecord& test : content.tests) {
    if (test.label > 1 || test.predicted > 1) {
      return Status::InvalidArgument("bundle test record label out of range");
    }
    if (test.activation.size() != width) {
      return Status::InvalidArgument(
          "bundle test activation width disagrees with the rule count");
    }
  }
  return Status::OK();
}

}  // namespace

struct QueryEngine::Core {
  Core(LogicalNet net, std::vector<std::vector<uint8_t>> train_labels,
       std::vector<std::vector<Bitset>> train_uploads,
       const TracerConfig& config)
      : model(std::move(net)),
        discrete(model),
        labels(std::move(train_labels)),
        uploads(std::move(train_uploads)),
        tracer(&model, &labels, &uploads, config) {}

  const LogicalNet model;
  /// The model never changes after it is built, so every fresh instance's
  /// Infer shares one plan (each call keeps its own scratch).
  const LogicalNet::DiscretePlan discrete;
  const std::vector<std::vector<uint8_t>> labels;
  const std::vector<std::vector<Bitset>> uploads;
  const ContributionTracer tracer;
};

QueryEngine::QueryEngine(BundleContent content,
                         std::unique_ptr<const Core> core)
    : content_(std::move(content)), core_(std::move(core)) {}

QueryEngine::QueryEngine(QueryEngine&&) noexcept = default;
QueryEngine::~QueryEngine() = default;

const LogicalNet& QueryEngine::model() const { return core_->model; }

Result<QueryEngine> QueryEngine::Open(const std::string& path) {
  CTFL_ASSIGN_OR_RETURN(BundleContent content, ReadBundle(path));
  return FromContent(std::move(content));
}

Result<QueryEngine> QueryEngine::FromContent(BundleContent content) {
  CTFL_SPAN("ctfl.query.engine_build");
  CTFL_RETURN_IF_ERROR(ValidateShapes(content));
  CTFL_ASSIGN_OR_RETURN(LogicalNet model, RestoreModel(content));
  // The tracer weighs rules with the model's own votes; the rules section
  // must be exactly those, or its text would describe other scores.
  for (int j = 0; j < model.num_rules(); ++j) {
    const RuleSnapshot& rule = content.rules[j];
    if (rule.support_class != model.RuleClass(j) ||
        std::bit_cast<uint64_t>(rule.weight) !=
            std::bit_cast<uint64_t>(model.RuleWeight(j))) {
      return Status::InvalidArgument(
          StrFormat("bundle rule %d disagrees with the restored model", j));
    }
  }
  std::vector<std::vector<uint8_t>> labels;
  std::vector<std::vector<Bitset>> uploads;
  labels.reserve(content.participants.size());
  uploads.reserve(content.participants.size());
  for (ParticipantRecords& records : content.participants) {
    labels.push_back(records.labels);
    uploads.push_back(std::move(records.activations));
  }
  TracerConfig config;
  config.tau_w = content.meta.tau_w;
  config.min_rule_weight = content.meta.min_rule_weight;
  config.num_threads = 1;
  auto core = std::make_unique<const Core>(std::move(model), std::move(labels),
                                           std::move(uploads), config);
  return QueryEngine(std::move(content), std::move(core));
}

RelatedResult QueryEngine::Lookup(const Bitset& activation, int predicted,
                                  const QueryOptions& options) const {
  RelatedCounter().Add(1);
  const double tau_w = options.tau_w < 0.0 ? origin_tau_w() : options.tau_w;
  TraceLookup lookup = core_->tracer.Lookup(
      activation, predicted, tau_w, {options.isa, options.trace_threads},
      options.max_records);
  RelatedResult result;
  result.predicted = predicted;
  result.support_size = lookup.support_size;
  result.support_weight = lookup.support_weight;
  result.related_count = std::move(lookup.related_count);
  result.total_related = lookup.total_related;
  result.records.reserve(lookup.records.size());
  for (const auto& [participant, local_index] : lookup.records) {
    result.records.push_back({participant, local_index});
  }
  result.bucket_size = lookup.bucket_size;
  result.tau_w_checks = lookup.tau_w_checks;
  result.records_scanned = lookup.stats.records_scanned;
  result.blocks_pruned = lookup.stats.blocks_pruned;
  result.exact_fallbacks = lookup.stats.exact_fallbacks;
  ChecksCounter().Add(result.tau_w_checks);
  return result;
}

RelatedResult QueryEngine::Related(const Instance& instance,
                                   const QueryOptions& options) const {
  CTFL_SPAN("ctfl.query.related");
  const LogicalNet::Inference inference =
      core_->model.Infer(instance, core_->discrete);
  return Lookup(inference.activation, inference.predicted, options);
}

RelatedResult QueryEngine::RelatedForTest(size_t test_index,
                                          const QueryOptions& options) const {
  CTFL_SPAN("ctfl.query.related");
  CTFL_CHECK(test_index < content_.tests.size());
  const TestRecord& test = content_.tests[test_index];
  return Lookup(test.activation, test.predicted, options);
}

QueryReport QueryEngine::Evaluate(const EvalOptions& options) const {
  CTFL_SPAN("ctfl.query.evaluate");
  static telemetry::Counter& evaluations =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.query.evaluations");
  evaluations.Add(1);

  QueryReport report;
  report.tau_w = options.tau_w < 0.0 ? origin_tau_w() : options.tau_w;
  report.delta = options.delta < 0 ? origin_delta() : options.delta;
  const TraceResult trace = core_->tracer.TraceForwards(
      content_.tests, report.tau_w, {options.isa, options.trace_threads});
  report.micro = MicroAllocation(trace);
  report.macro = MacroAllocation(trace, report.delta);
  report.global_accuracy = trace.global_accuracy;
  report.matched_accuracy = trace.matched_accuracy;

  // Section IV-B: the non-distinctive rankings, with rule text attached.
  auto with_text = [&](const std::vector<RuleFrequency>& rules) {
    std::vector<RuleStat> stats;
    stats.reserve(rules.size());
    for (const RuleFrequency& rule : rules) {
      stats.push_back({rule.rule, rule.weighted_frequency,
                       content_.rules[rule.rule].text});
    }
    return stats;
  };
  const CollectionGuidance guidance = GuideDataCollection(trace, options.top_k);
  report.uncovered_tests = guidance.uncovered_tests;
  report.uncovered_rules = with_text(guidance.uncovered_rules);
  for (const ParticipantProfile& profile :
       BuildProfiles(trace, options.top_k)) {
    const int p = profile.participant;
    ParticipantSummary summary;
    summary.participant = p;
    summary.name = p < static_cast<int>(content_.meta.participant_names.size())
                       ? content_.meta.participant_names[p]
                       : StrFormat("P%d", p);
    summary.data_size = profile.data_size;
    summary.beneficial = with_text(profile.beneficial);
    summary.harmful = with_text(profile.harmful);
    summary.useless_ratio = profile.useless_ratio;
    report.participants.push_back(std::move(summary));
  }

  report.keys = trace.num_keys;
  report.tau_w_checks = trace.tau_w_checks;
  report.records_scanned = trace.records_scanned;
  report.blocks_pruned = trace.blocks_pruned;
  report.exact_fallbacks = trace.exact_fallbacks;
  ChecksCounter().Add(report.tau_w_checks);
  return report;
}

}  // namespace store
}  // namespace ctfl
