#include "ctfl/store/query_engine.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

#include "ctfl/nn/matrix.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace store {
namespace {

// Must match the tracer's comparison slack (core/tracer.cc) so that the
// engine reproduces its related sets exactly.
constexpr double kRatioEps = 1e-9;
// Extra slack when deciding which support rules the posting prefilter may
// skip; absorbs the floating-point drift between "sum of skipped weights"
// and any candidate's exact ascending-order overlap sum.
constexpr double kPrefilterSafety = 1e-9;

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
telemetry::Counter& PostingsCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.query.postings_scanned");
  return c;
}
telemetry::Counter& PrunedCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.query.candidates_pruned");
  return c;
}

// Top-k (rule, frequency) entries of one row of a frequency matrix,
// frequency descending with rule-index tie-break (mirrors
// core/interpret.cc's non-distinctive ranking).
std::vector<RuleStat> TopRuleStats(const Matrix& freq, int participant,
                                   int top_k,
                                   const std::vector<RuleSnapshot>& rules) {
  std::vector<RuleStat> all;
  for (size_t j = 0; j < freq.cols(); ++j) {
    const double f = freq(participant, j);
    if (f <= 0.0) continue;
    all.push_back({static_cast<int>(j), f, rules[j].text});
  }
  std::sort(all.begin(), all.end(), [](const RuleStat& a, const RuleStat& b) {
    if (a.frequency != b.frequency) return a.frequency > b.frequency;
    return a.rule < b.rule;
  });
  if (top_k >= 0 && static_cast<int>(all.size()) > top_k) all.resize(top_k);
  return all;
}

}  // namespace

QueryEngine::QueryEngine(BundleContent content, LogicalNet model)
    : content_(std::move(content)), model_(std::move(model)) {
  const int num_rules = content_.num_rules();
  rule_weights_.assign(num_rules, 0.0);
  class_mask_[0] = Bitset(num_rules);
  class_mask_[1] = Bitset(num_rules);
  for (int j = 0; j < num_rules; ++j) {
    const double w = content_.rules[j].weight;
    if (w < content_.meta.min_rule_weight) continue;
    rule_weights_[j] = w;
    class_mask_[content_.rules[j].support_class].Set(j);
  }
  const size_t total = content_.total_train_records();
  record_participant_.reserve(total);
  record_local_.reserve(total);
  record_label_.reserve(total);
  record_activation_.reserve(total);
  record_bucket_pos_.reserve(total);
  for (size_t p = 0; p < content_.participants.size(); ++p) {
    const ParticipantRecords& records = content_.participants[p];
    for (size_t i = 0; i < records.size(); ++i) {
      const uint32_t id = static_cast<uint32_t>(record_participant_.size());
      const int cls = records.labels[i] & 1;
      record_participant_.push_back(static_cast<int32_t>(p));
      record_local_.push_back(static_cast<int32_t>(i));
      record_label_.push_back(records.labels[i]);
      record_activation_.push_back(&records.activations[i]);
      record_bucket_pos_.push_back(
          static_cast<uint32_t>(class_records_[cls].size()));
      class_records_[cls].push_back(id);
    }
  }
  // Pack the per-class blocked kernels once; the pointed-to activation
  // bitsets live on content_.participants' heap buffers, which stay put
  // across moves of the engine.
  for (int c = 0; c < 2; ++c) {
    std::vector<const Bitset*> records;
    records.reserve(class_records_[c].size());
    for (uint32_t id : class_records_[c]) {
      records.push_back(record_activation_[id]);
    }
    class_kernel_[c] = TraceKernel(std::move(records), num_rules);
  }
}

Result<QueryEngine> QueryEngine::Open(const std::string& path) {
  CTFL_ASSIGN_OR_RETURN(BundleContent content, ReadBundle(path));
  return FromContent(std::move(content));
}

Result<QueryEngine> QueryEngine::FromContent(BundleContent content) {
  CTFL_SPAN("ctfl.query.engine_build");
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
  if (content.posting_offsets.size() != content.rules.size() + 1) {
    BuildPostingIndex(content);
  }
  CTFL_ASSIGN_OR_RETURN(LogicalNet model, RestoreModel(content));
  return QueryEngine(std::move(content), std::move(model));
}

RelatedResult QueryEngine::RelatedForActivation(
    const Bitset& activation, int predicted, double tau_w, bool use_index,
    size_t max_records, TraceKernelKind kernel_kind,
    const TraceMatchOptions& match) const {
  const int n = content_.num_participants();
  RelatedResult result;
  result.predicted = predicted;
  result.related_count.assign(n, 0);
  result.bucket_size =
      static_cast<int64_t>(class_records_[predicted & 1].size());

  // Supporting rules of the predicted class (Eq. 4's weighted support),
  // accumulated in ascending rule order exactly like the tracer.
  Bitset support = activation;
  support &= class_mask_[predicted & 1];
  std::vector<std::pair<int, double>> supp_list;
  double weight_sum = 0.0;
  support.ForEachSetBit([&](size_t j) {
    supp_list.emplace_back(static_cast<int>(j), rule_weights_[j]);
    weight_sum += rule_weights_[j];
  });
  result.support_size = static_cast<int>(supp_list.size());
  result.support_weight = weight_sum;
  if (weight_sum <= 0.0) {
    // Nothing to match against (tracer semantics: no related records).
    result.candidates_pruned = result.bucket_size;
    return result;
  }
  const double threshold = tau_w * weight_sum - kRatioEps;

  // ---- Candidate generation. ---------------------------------------------
  // Posting-prefiltered path: pick the minimal heaviest-weight prefix T of
  // the support rules whose complement's total weight cannot reach the
  // threshold; every related record must activate at least one rule of T,
  // so the union of T's posting lists is a lossless candidate superset.
  std::vector<uint32_t> candidates;
  const std::vector<uint32_t>& bucket = class_records_[predicted & 1];
  bool prefiltered = false;
  if (use_index && threshold > 0.0 &&
      content_.posting_offsets.size() == content_.rules.size() + 1) {
    std::vector<size_t> order(supp_list.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (supp_list[a].second != supp_list[b].second) {
        return supp_list[a].second > supp_list[b].second;
      }
      return supp_list[a].first < supp_list[b].first;
    });
    std::vector<uint8_t> seen(record_participant_.size(), 0);
    double remaining = weight_sum;
    for (size_t i : order) {
      if (remaining + kPrefilterSafety < threshold) break;
      const int rule = supp_list[i].first;
      const uint64_t lo = content_.posting_offsets[rule];
      const uint64_t hi = content_.posting_offsets[rule + 1];
      result.postings_scanned += static_cast<int64_t>(hi - lo);
      for (uint64_t k = lo; k < hi; ++k) {
        const uint32_t id = content_.postings[k];
        if (seen[id]) continue;
        seen[id] = 1;
        if ((record_label_[id] & 1) == (predicted & 1)) {
          candidates.push_back(id);
        }
      }
      remaining -= supp_list[i].second;
    }
    // Ascending ids: deterministic match order, same as the tracer's
    // class-bucket sweep.
    std::sort(candidates.begin(), candidates.end());
    prefiltered = true;
  }
  const std::vector<uint32_t>& scan = prefiltered ? candidates : bucket;

  if (kernel_kind == TraceKernelKind::kBlocked) {
    // ---- Blocked word-parallel match (bit-identical to the scalar scan;
    // kernel/trace_kernel.h). Candidates are addressed by bucket position,
    // so the lane sweep reproduces the ascending-id match order.
    const TraceKernel& kernel = class_kernel_[predicted & 1];
    const size_t nb = kernel.num_blocks();
    std::vector<uint64_t> cmask_storage;
    const uint64_t* cmask = nullptr;
    if (prefiltered) {
      cmask_storage.assign(nb, 0);
      for (uint32_t id : candidates) {
        const uint32_t pos = record_bucket_pos_[id];
        cmask_storage[pos / 64] |= 1ULL << (pos % 64);
      }
      cmask = cmask_storage.data();
    }
    result.tau_w_checks = static_cast<int64_t>(scan.size());
    const TraceKernel::Support support_set =
        TraceKernel::Prepare(supp_list, threshold);
    std::vector<uint64_t> related(nb, 0);
    TraceKernelStats kstats;
    result.total_related =
        kernel.Match(support_set, cmask, related.data(), &kstats, match);
    result.records_scanned = kstats.records_scanned;
    result.blocks_pruned = kstats.blocks_pruned;
    result.exact_fallbacks = kstats.exact_fallbacks;
    for (size_t b = 0; b < nb; ++b) {
      uint64_t word = related[b];
      while (word != 0) {
        const int lane = std::countr_zero(word);
        word &= word - 1;
        const uint32_t id = bucket[b * 64 + static_cast<size_t>(lane)];
        ++result.related_count[record_participant_[id]];
        if (result.records.size() < max_records) {
          result.records.push_back(
              {record_participant_[id], record_local_[id]});
        }
      }
    }
  } else {
    // ---- Exact Eq. 4 check (identical arithmetic to the tracer). ---------
    for (uint32_t id : scan) {
      ++result.tau_w_checks;
      const Bitset& record = *record_activation_[id];
      double overlap = 0.0;
      for (const auto& [rule, weight] : supp_list) {
        if (record.Test(rule)) overlap += weight;
      }
      if (overlap < threshold) continue;
      ++result.related_count[record_participant_[id]];
      ++result.total_related;
      if (result.records.size() < max_records) {
        result.records.push_back(
            {record_participant_[id], record_local_[id]});
      }
    }
  }
  result.candidates_pruned = result.bucket_size - result.tau_w_checks;
  ChecksCounter().Add(result.tau_w_checks);
  PostingsCounter().Add(result.postings_scanned);
  PrunedCounter().Add(result.candidates_pruned);
  return result;
}

RelatedResult QueryEngine::Related(const Instance& instance,
                                   const QueryOptions& options) const {
  CTFL_SPAN("ctfl.query.related");
  RelatedCounter().Add(1);
  const double tau_w = options.tau_w < 0.0 ? origin_tau_w() : options.tau_w;
  const LogicalNet::Inference inference = model_.Infer(instance);
  return RelatedForActivation(inference.activation, inference.predicted,
                              tau_w, options.use_index, options.max_records,
                              options.kernel,
                              {options.isa, options.trace_threads});
}

RelatedResult QueryEngine::RelatedForTest(size_t test_index,
                                          const QueryOptions& options) const {
  CTFL_SPAN("ctfl.query.related");
  CTFL_CHECK(test_index < content_.tests.size());
  RelatedCounter().Add(1);
  const double tau_w = options.tau_w < 0.0 ? origin_tau_w() : options.tau_w;
  const TestRecord& test = content_.tests[test_index];
  return RelatedForActivation(test.activation, test.predicted, tau_w,
                              options.use_index, options.max_records,
                              options.kernel,
                              {options.isa, options.trace_threads});
}

QueryReport QueryEngine::Evaluate(const EvalOptions& options) const {
  CTFL_SPAN("ctfl.query.evaluate");
  static telemetry::Counter& evaluations =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.query.evaluations");
  evaluations.Add(1);

  const double tau_w = options.tau_w < 0.0 ? origin_tau_w() : options.tau_w;
  const int delta = options.delta < 0 ? origin_delta() : options.delta;
  const int n = content_.num_participants();
  const int num_rules = content_.num_rules();
  const size_t num_tests = content_.tests.size();

  QueryReport report;
  report.tau_w = tau_w;
  report.delta = delta;

  // ---- Dedup (class, support-set) keys, first-seen test order. -----------
  struct Key {
    int target = 0;
    Bitset support;
    int correct_members = 0;
    int miss_members = 0;
    std::vector<size_t> members;
  };
  std::vector<Key> keys;
  std::unordered_map<Bitset, size_t, BitsetHash> key_index[2];
  size_t correct_total = 0;
  for (size_t t = 0; t < num_tests; ++t) {
    const TestRecord& test = content_.tests[t];
    const bool correct = test.predicted == test.label;
    if (correct) ++correct_total;
    Bitset support = test.activation;
    support &= class_mask_[test.predicted & 1];
    auto [it, inserted] =
        key_index[test.predicted & 1].try_emplace(support, keys.size());
    if (inserted) {
      keys.push_back({});
      keys.back().target = test.predicted;
      keys.back().support = std::move(support);
    }
    Key& key = keys[it->second];
    key.members.push_back(t);
    if (correct) {
      ++key.correct_members;
    } else {
      ++key.miss_members;
    }
  }
  report.keys = static_cast<int64_t>(keys.size());
  report.global_accuracy =
      num_tests == 0 ? 0.0
                     : static_cast<double>(correct_total) / num_tests;

  // ---- Per-key matching + interpretability accumulation. -----------------
  std::vector<std::vector<int>> test_related(num_tests);
  std::vector<size_t> test_total(num_tests, 0);
  Matrix beneficial(n, num_rules);
  Matrix harmful(n, num_rules);
  std::vector<uint8_t> record_matched(record_participant_.size(), 0);

  for (const Key& key : keys) {
    RelatedResult related = RelatedForActivation(
        key.support, key.target, tau_w, /*use_index=*/true,
        /*max_records=*/record_participant_.size(), options.kernel,
        {options.isa, options.trace_threads});
    report.tau_w_checks += related.tau_w_checks;
    report.postings_scanned += related.postings_scanned;
    report.candidates_pruned += related.candidates_pruned;
    report.records_scanned += related.records_scanned;
    report.blocks_pruned += related.blocks_pruned;
    report.exact_fallbacks += related.exact_fallbacks;
    // Section IV-B frequencies, weighted by how many member tests the key
    // covers — the same closed-form accumulation as the tracer: count
    // related activations per (supporting rule, participant), then one
    // fused multiply per cell in rule-outer / participant-ascending order
    // so query scores stay bit-identical to the originating run.
    std::vector<std::pair<int, double>> supp_list;
    key.support.ForEachSetBit([&](size_t j) {
      supp_list.emplace_back(static_cast<int>(j), rule_weights_[j]);
    });
    std::vector<int64_t> rule_part_counts(
        supp_list.size() * static_cast<size_t>(n), 0);
    for (const RecordRef& ref : related.records) {
      size_t global = 0;
      for (int p = 0; p < ref.participant; ++p) {
        global += content_.participants[p].size();
      }
      global += static_cast<size_t>(ref.local_index);
      record_matched[global] = 1;
      const Bitset& activation = *record_activation_[global];
      int64_t* counts = rule_part_counts.data() + ref.participant;
      for (size_t si = 0; si < supp_list.size(); ++si) {
        if (activation.Test(supp_list[si].first)) {
          counts[si * static_cast<size_t>(n)] += 1;
        }
      }
    }
    for (size_t si = 0; si < supp_list.size(); ++si) {
      const auto& [rule, weight] = supp_list[si];
      for (int p = 0; p < n; ++p) {
        const int64_t cnt =
            rule_part_counts[si * static_cast<size_t>(n) + p];
        if (cnt == 0) continue;
        if (key.correct_members > 0) {
          beneficial(p, rule) +=
              (weight * key.correct_members) * static_cast<double>(cnt);
        }
        if (key.miss_members > 0) {
          harmful(p, rule) +=
              (weight * key.miss_members) * static_cast<double>(cnt);
        }
      }
    }
    for (size_t t : key.members) {
      test_related[t] = related.related_count;
      test_total[t] = related.total_related;
    }
  }

  // ---- Micro (Eq. 5) — identical accumulation to core/allocation. --------
  report.micro.assign(n, 0.0);
  if (num_tests > 0) {
    for (size_t t = 0; t < num_tests; ++t) {
      const TestRecord& test = content_.tests[t];
      if (test.predicted != test.label) continue;
      if (test_total[t] == 0) continue;
      for (int p = 0; p < n; ++p) {
        report.micro[p] += static_cast<double>(test_related[t][p]) /
                           static_cast<double>(test_total[t]);
      }
    }
    for (double& s : report.micro) s /= num_tests;
  }

  // ---- Macro (Eq. 6) — identical accumulation to core/allocation. --------
  report.macro.assign(n, 0.0);
  if (num_tests > 0) {
    for (size_t t = 0; t < num_tests; ++t) {
      const TestRecord& test = content_.tests[t];
      if (test.predicted != test.label) continue;
      int qualifying = 0;
      for (int p = 0; p < n; ++p) {
        if (test_related[t][p] >= delta) ++qualifying;
      }
      if (qualifying == 0) continue;
      const double share = 1.0 / qualifying;
      for (int p = 0; p < n; ++p) {
        if (test_related[t][p] >= delta) report.macro[p] += share;
      }
    }
    for (double& s : report.macro) s /= num_tests;
  }

  // ---- Matched accuracy + uncovered scenarios. ---------------------------
  size_t matched_correct = 0;
  std::vector<double> uncovered_freq(num_rules, 0.0);
  for (size_t t = 0; t < num_tests; ++t) {
    const TestRecord& test = content_.tests[t];
    const bool correct = test.predicted == test.label;
    if (correct && test_total[t] > 0) ++matched_correct;
    if (!correct && test_total[t] == 0) {
      ++report.uncovered_tests;
      test.activation.ForEachSetBit([&](size_t j) {
        uncovered_freq[j] += rule_weights_[j];
      });
    }
  }
  report.matched_accuracy =
      num_tests == 0 ? 0.0
                     : static_cast<double>(matched_correct) / num_tests;
  for (int j = 0; j < num_rules; ++j) {
    if (uncovered_freq[j] > 0.0) {
      report.uncovered_rules.push_back(
          {j, uncovered_freq[j], content_.rules[j].text});
    }
  }
  std::sort(report.uncovered_rules.begin(), report.uncovered_rules.end(),
            [](const RuleStat& a, const RuleStat& b) {
              if (a.frequency != b.frequency) {
                return a.frequency > b.frequency;
              }
              return a.rule < b.rule;
            });
  if (options.top_k >= 0 &&
      static_cast<int>(report.uncovered_rules.size()) > options.top_k) {
    report.uncovered_rules.resize(options.top_k);
  }

  // ---- Per-participant summaries (section IV-B). -------------------------
  size_t global = 0;
  for (int p = 0; p < n; ++p) {
    ParticipantSummary summary;
    summary.participant = p;
    summary.name = p < static_cast<int>(content_.meta.participant_names.size())
                       ? content_.meta.participant_names[p]
                       : StrFormat("P%d", p);
    summary.data_size = content_.participants[p].size();
    summary.beneficial =
        TopRuleStats(beneficial, p, options.top_k, content_.rules);
    summary.harmful = TopRuleStats(harmful, p, options.top_k, content_.rules);
    size_t never_matched = 0;
    for (size_t i = 0; i < summary.data_size; ++i) {
      if (!record_matched[global + i]) ++never_matched;
    }
    global += summary.data_size;
    summary.useless_ratio =
        summary.data_size == 0
            ? 0.0
            : static_cast<double>(never_matched) / summary.data_size;
    report.participants.push_back(std::move(summary));
  }
  return report;
}

}  // namespace store
}  // namespace ctfl
