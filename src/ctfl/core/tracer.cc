#include "ctfl/core/tracer.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "ctfl/fl/privacy.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/stopwatch.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {
namespace {

constexpr double kRatioEps = 1e-9;

// A distinct (target class, supporting-rule set) tracing task. All test
// instances sharing a key have identical related sets.
struct TraceKey {
  int target_class = 0;
  Bitset support;                                // over rule coordinates
  std::vector<std::pair<int, double>> supp_list;  // (rule, weight)
  double weight_sum = 0.0;
  std::vector<size_t> members;  // test indices
  int correct_members = 0;
  int miss_members = 0;
};

/// The ascending (rule, weight) list of `support` — the exact-fallback
/// accumulation order — and its total weight.
double SupportList(const Bitset& support, const std::vector<double>& weights,
                   std::vector<std::pair<int, double>>* list) {
  double weight_sum = 0.0;
  list->reserve(support.Count());
  support.ForEachSetBit([&](size_t j) {
    list->emplace_back(static_cast<int>(j), weights[j]);
    weight_sum += weights[j];
  });
  return weight_sum;
}

/// Set bits among lanes [lo, hi) of the lane words word(b), b = lane / 64.
template <typename WordFn>
int64_t CountLanes(size_t lo, size_t hi, WordFn word) {
  if (lo >= hi) return 0;
  const size_t b_lo = lo / 64;
  const size_t b_hi = (hi - 1) / 64;
  int64_t count = 0;
  for (size_t b = b_lo; b <= b_hi; ++b) {
    uint64_t w = word(b);
    if (b == b_lo) w &= ~0ULL << (lo % 64);
    if (b == b_hi && hi % 64 != 0) w &= ~0ULL >> (64 - hi % 64);
    count += std::popcount(w);
  }
  return count;
}

}  // namespace

std::vector<std::vector<Bitset>> ContributionTracer::ComputeUploadActivations(
    const LogicalNet& net, const Federation& federation,
    const TracerConfig& config, double* train_accuracy) {
  // Participants compute their activation vectors locally and upload them
  // (paper §V privacy analysis); here that is this precomputation. When
  // dp_epsilon > 0 each participant perturbs its upload with randomized
  // response before it leaves the client. Each participant's DP stream is
  // seeded dp_seed + p and consumed in record order, so any caller running
  // this against the same model reproduces the uploads bit-for-bit.
  // The forward pass itself runs in 64-record blocks (InferDataset);
  // the randomized response then walks the records in order.
  std::vector<std::vector<Bitset>> uploads(federation.size());
  std::vector<uint8_t> predicted;
  size_t records = 0;
  size_t correct = 0;
  for (size_t p = 0; p < federation.size(); ++p) {
    const Dataset& data = federation[p].data;
    net.InferDataset(data, train_accuracy != nullptr ? &predicted : nullptr,
                     &uploads[p]);
    if (train_accuracy != nullptr) {
      for (size_t i = 0; i < data.size(); ++i) {
        if (predicted[i] == data.instance(i).label) ++correct;
      }
      records += data.size();
    }
    if (config.dp_epsilon > 0.0) {
      Rng dp_rng(config.dp_seed + p);
      for (Bitset& activation : uploads[p]) {
        activation = RandomizedResponse(activation, config.dp_epsilon, dp_rng);
      }
    }
  }
  if (train_accuracy != nullptr) {
    *train_accuracy =
        records > 0 ? static_cast<double>(correct) / records : 0.0;
  }
  return uploads;
}

ContributionTracer::ContributionTracer(const LogicalNet* net,
                                       const Federation* federation,
                                       TracerConfig config)
    : net_(net), federation_(federation), config_(config) {
  CTFL_CHECK(net_ != nullptr && federation_ != nullptr);
  BuildRuleMasks();
  train_activations_ = ComputeUploadActivations(*net_, *federation_, config_);
  IndexTrainRefs();
}

ContributionTracer::ContributionTracer(
    const LogicalNet* net, const Federation* federation, TracerConfig config,
    std::vector<std::vector<Bitset>> train_activations)
    : net_(net),
      federation_(federation),
      config_(config),
      train_activations_(std::move(train_activations)) {
  CTFL_CHECK(net_ != nullptr && federation_ != nullptr);
  CTFL_CHECK(train_activations_.size() == federation_->size());
  for (size_t p = 0; p < federation_->size(); ++p) {
    CTFL_CHECK(train_activations_[p].size() ==
               (*federation_)[p].data.size());
    for (const Bitset& activation : train_activations_[p]) {
      CTFL_CHECK(activation.size() ==
                 static_cast<size_t>(net_->num_rules()));
    }
  }
  BuildRuleMasks();
  IndexTrainRefs();
}

ContributionTracer::ContributionTracer(
    const LogicalNet* net, const std::vector<std::vector<uint8_t>>* labels,
    const std::vector<std::vector<Bitset>>* activations, TracerConfig config)
    : net_(net),
      federation_(nullptr),
      config_(config),
      borrowed_labels_(labels),
      borrowed_activations_(activations) {
  CTFL_CHECK(net_ != nullptr && labels != nullptr && activations != nullptr);
  CTFL_CHECK(labels->size() == activations->size());
  for (size_t p = 0; p < activations->size(); ++p) {
    CTFL_CHECK((*labels)[p].size() == (*activations)[p].size());
    for (const Bitset& activation : (*activations)[p]) {
      CTFL_CHECK(activation.size() == static_cast<size_t>(net_->num_rules()));
    }
  }
  BuildRuleMasks();
  IndexTrainRefs();
}

void ContributionTracer::BuildRuleMasks() {
  const int num_rules = net_->num_rules();
  rule_weights_.resize(num_rules);
  class_mask_[0] = Bitset(num_rules);
  class_mask_[1] = Bitset(num_rules);
  for (int j = 0; j < num_rules; ++j) {
    const double w = net_->RuleWeight(j);
    if (w < config_.min_rule_weight) {
      rule_weights_[j] = 0.0;
      continue;
    }
    rule_weights_[j] = w;
    class_mask_[net_->RuleClass(j)].Set(j);
  }
}

void ContributionTracer::IndexTrainRefs() {
  const std::vector<std::vector<Bitset>>& uploads = activations();
  const size_t n = uploads.size();
  for (int c = 0; c < 2; ++c) class_part_offset_[c].assign(n + 1, 0);
  for (size_t p = 0; p < n; ++p) {
    for (size_t i = 0; i < uploads[p].size(); ++i) {
      TrainRef ref{static_cast<int>(p), static_cast<int>(i), &uploads[p][i]};
      const int label = borrowed_labels_ != nullptr
                            ? static_cast<int>((*borrowed_labels_)[p][i])
                            : (*federation_)[p].data.instance(i).label;
      train_by_class_[label].push_back(ref);
    }
    for (int c = 0; c < 2; ++c) {
      class_part_offset_[c][p + 1] = train_by_class_[c].size();
    }
  }
  CTFL_SPAN("ctfl.trace.kernel_pack");
  for (int c = 0; c < 2; ++c) {
    std::vector<const Bitset*> records;
    records.reserve(train_by_class_[c].size());
    for (const TrainRef& ref : train_by_class_[c]) {
      records.push_back(ref.activation);
    }
    class_kernel_[c] = TraceKernel(std::move(records), net_->num_rules());
  }
}

size_t ContributionTracer::MatchKey(
    int c, const std::vector<std::pair<int, double>>& supp,
    double weight_sum, double tau_w, const TraceMatchOptions& match,
    uint64_t* words, std::vector<int>* related_count,
    TraceKernelStats* stats) const {
  const double threshold = tau_w * weight_sum - kRatioEps;
  const size_t total = class_kernel_[c].Match(
      TraceKernel::Prepare(supp, threshold), nullptr, words, stats, match);
  // Class buckets are participant-contiguous (IndexTrainRefs appends
  // participants in order), so each participant is one slot range.
  const std::vector<size_t>& offsets = class_part_offset_[c];
  related_count->assign(offsets.size() - 1, 0);
  for (size_t p = 0; p + 1 < offsets.size(); ++p) {
    (*related_count)[p] = static_cast<int>(CountLanes(
        offsets[p], offsets[p + 1], [&](size_t b) { return words[b]; }));
  }
  return total;
}

TraceLookup ContributionTracer::Lookup(const Bitset& activation,
                                       int predicted, double tau_w,
                                       const TraceMatchOptions& match,
                                       size_t max_records) const {
  CTFL_CHECK(predicted == 0 || predicted == 1);
  const std::vector<TrainRef>& bucket = train_by_class_[predicted];
  TraceLookup lookup;
  lookup.related_count.assign(activations().size(), 0);
  lookup.bucket_size = static_cast<int64_t>(bucket.size());
  Bitset support = activation;
  support &= class_mask_[predicted];
  std::vector<std::pair<int, double>> supp;
  lookup.support_weight = SupportList(support, rule_weights_, &supp);
  lookup.support_size = static_cast<int>(supp.size());
  if (lookup.support_weight <= 0.0) return lookup;  // nothing to match
  lookup.tau_w_checks = lookup.bucket_size;
  std::vector<uint64_t> words(class_kernel_[predicted].num_blocks(), 0);
  lookup.total_related =
      MatchKey(predicted, supp, lookup.support_weight, tau_w, match,
               words.data(), &lookup.related_count, &lookup.stats);
  for (size_t b = 0; b < words.size(); ++b) {
    for (uint64_t w = words[b];
         w != 0 && lookup.records.size() < max_records; w &= w - 1) {
      const TrainRef& ref = bucket[b * 64 + std::countr_zero(w)];
      lookup.records.emplace_back(ref.participant, ref.local_index);
    }
  }
  return lookup;
}

TraceResult ContributionTracer::Trace(const Dataset& test) const {
  Stopwatch watch;
  // Forward pass: label, prediction and raw activation per test instance.
  // Everything downstream of this is a pure function of the forwards and
  // the uploads — TraceForwards — which the streaming scorer re-runs
  // against persisted forwards without the Dataset.
  std::vector<TestForward> forwards;
  {
    telemetry::Span forward_span("ctfl.trace.forwards");
    forwards = InferTestForwards(*net_, test);
  }
  TraceResult result = TraceForwards(forwards);
  result.tracing_seconds = watch.ElapsedSeconds();
  return result;
}

TraceResult ContributionTracer::TraceForwards(
    const std::vector<TestForward>& forwards) const {
  return TraceForwards(forwards, config_.tau_w,
                       {config_.isa, config_.trace_threads});
}

TraceResult ContributionTracer::TraceForwards(
    const std::vector<TestForward>& forwards, double tau_w,
    const TraceMatchOptions& match) const {
  CTFL_SPAN("ctfl.trace.pass");
  Stopwatch watch;
  const std::vector<std::vector<Bitset>>& uploads = activations();
  const int n = static_cast<int>(uploads.size());
  const int num_rules = net_->num_rules();

  TraceResult result;
  result.num_participants = n;
  result.num_rules = num_rules;
  result.tests.resize(forwards.size());
  result.train_match_correct.resize(n);
  result.train_match_miss.resize(n);
  for (int p = 0; p < n; ++p) {
    result.train_match_correct[p].assign(uploads[p].size(), 0);
    result.train_match_miss[p].assign(uploads[p].size(), 0);
  }
  result.beneficial_rule_freq = Matrix(n, num_rules);
  result.harmful_rule_freq = Matrix(n, num_rules);
  result.uncovered_rule_freq.assign(num_rules, 0.0);

  // ---- Build tracing keys (dedup identical supporting sets). -------------
  std::vector<TraceKey> keys;
  std::unordered_map<size_t, std::vector<size_t>> key_index;  // hash->keys
  size_t correct_total = 0;

  telemetry::Span key_span("ctfl.trace.keys");
  for (size_t t = 0; t < forwards.size(); ++t) {
    const TestForward& fwd = forwards[t];
    const int predicted = fwd.predicted;
    const bool correct = predicted == static_cast<int>(fwd.label);
    if (correct) ++correct_total;

    Bitset support = fwd.activation;
    support &= class_mask_[predicted];

    TestTrace& trace = result.tests[t];
    trace.predicted = predicted;
    trace.correct = correct;
    trace.support_size = static_cast<int>(support.Count());
    trace.related_count.assign(n, 0);

    // Locate or create the key.
    size_t key_id = SIZE_MAX;
    if (config_.use_dedup) {
      const size_t h = support.Hash() * 2 + predicted;
      for (size_t cand : key_index[h]) {
        if (keys[cand].target_class == predicted &&
            keys[cand].support == support) {
          key_id = cand;
          break;
        }
      }
      if (key_id == SIZE_MAX) {
        key_id = keys.size();
        key_index[h].push_back(key_id);
        keys.push_back({});
      }
    } else {
      key_id = keys.size();
      keys.push_back({});
    }
    TraceKey& key = keys[key_id];
    if (key.members.empty()) {
      key.target_class = predicted;
      key.weight_sum = SupportList(support, rule_weights_, &key.supp_list);
      key.support = std::move(support);
    }
    key.members.push_back(t);
    if (correct) {
      ++key.correct_members;
    } else {
      ++key.miss_members;
    }
  }
  key_span.End();
  result.global_accuracy =
      forwards.empty()
          ? 0.0
          : static_cast<double>(correct_total) / forwards.size();
  result.num_keys = static_cast<int64_t>(keys.size());

  // ---- Match (parallel over keys, any order): each key's related records
  // as lane words over its class bucket. Integer results only; every
  // floating-point sum waits for the key-ordered fold below.
  telemetry::Span match_span("ctfl.trace.match");
  const size_t class_blocks[2] = {(train_by_class_[0].size() + 63) / 64,
                                  (train_by_class_[1].size() + 63) / 64};
  // Key k's words are related[related_offset[k] ..]; keys without support
  // weight match nothing and get none.
  std::vector<size_t> related_offset(keys.size() + 1, 0);
  std::vector<uint32_t> class_keys[2];  // traced keys, ascending
  for (size_t k = 0; k < keys.size(); ++k) {
    size_t words = 0;
    if (keys[k].weight_sum > 0.0) {
      words = class_blocks[keys[k].target_class];
      class_keys[keys[k].target_class].push_back(static_cast<uint32_t>(k));
      result.tau_w_checks += static_cast<int64_t>(
          train_by_class_[keys[k].target_class].size());
    }
    related_offset[k + 1] = related_offset[k] + words;
  }
  std::vector<uint64_t> related(related_offset.back(), 0);
  std::vector<TraceKernelStats> key_stats(keys.size());
  std::vector<size_t> key_related(keys.size(), 0);

  ParallelFor(config_.num_threads, 0, keys.size(), [&](size_t k) {
    const TraceKey& key = keys[k];
    if (key.weight_sum <= 0.0) return;  // nothing to match against
    std::vector<int> related_per_participant;
    key_related[k] = MatchKey(key.target_class, key.supp_list,
                              key.weight_sum, tau_w, match,
                              related.data() + related_offset[k],
                              &related_per_participant, &key_stats[k]);
    for (size_t t : key.members) {
      result.tests[t].related_count = related_per_participant;
      result.tests[t].total_related = key_related[k];
    }
  });
  for (size_t k = 0; k < keys.size(); ++k) {
    result.related_records += static_cast<int64_t>(key_related[k]);
    result.records_scanned += key_stats[k].records_scanned;
    result.blocks_pruned += key_stats[k].blocks_pruned;
    result.exact_fallbacks += key_stats[k].exact_fallbacks;
  }

  // ---- §IV-B weight-regularized rule frequencies, folded in key order:
  // columns in parallel, each cell's terms added for keys ascending — the
  // serial loop's sequence at any thread count. Within one key every
  // related record of participant p adds the same `weight * members` to
  // cell (p, rule), so a key contributes one multiply per cell, counted
  // from masked popcounts of rule-row ∧ related words.
  std::vector<std::vector<uint32_t>> rule_keys(num_rules);
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].weight_sum <= 0.0) continue;
    for (const auto& [rule, weight] : keys[k].supp_list) {
      rule_keys[rule].push_back(static_cast<uint32_t>(k));
    }
  }
  ParallelFor(config_.num_threads, 0, rule_keys.size(), [&](size_t j) {
    const int rule = static_cast<int>(j);
    const double weight = rule_weights_[rule];
    for (uint32_t k : rule_keys[rule]) {
      const TraceKey& key = keys[k];
      const int c = key.target_class;
      const uint64_t* words = related.data() + related_offset[k];
      const std::vector<int>& per_participant =
          result.tests[key.members.front()].related_count;
      for (int p = 0; p < n; ++p) {
        if (per_participant[p] == 0) continue;
        const int64_t cnt = CountLanes(
            class_part_offset_[c][p], class_part_offset_[c][p + 1],
            [&](size_t b) {
              return class_kernel_[c].rule_word(rule, b) & words[b];
            });
        if (cnt == 0) continue;
        if (key.correct_members > 0) {
          result.beneficial_rule_freq(p, rule) +=
              (weight * key.correct_members) * static_cast<double>(cnt);
        }
        if (key.miss_members > 0) {
          result.harmful_rule_freq(p, rule) +=
              (weight * key.miss_members) * static_cast<double>(cnt);
        }
      }
    }
  });

  // ---- Per-record match counts (integer sums), blocks in parallel: each
  // block's records belong to it alone.
  ParallelFor(config_.num_threads, 0, class_blocks[0] + class_blocks[1],
              [&](size_t i) {
                const int c = i < class_blocks[0] ? 0 : 1;
                const size_t b = c == 0 ? i : i - class_blocks[0];
                const std::vector<TrainRef>& bucket = train_by_class_[c];
                for (uint32_t k : class_keys[c]) {
                  const TraceKey& key = keys[k];
                  for (uint64_t w = related[related_offset[k] + b]; w != 0;
                       w &= w - 1) {
                    const TrainRef& ref =
                        bucket[b * 64 + std::countr_zero(w)];
                    result.train_match_correct[ref.participant]
                                              [ref.local_index] +=
                        key.correct_members;
                    result.train_match_miss[ref.participant]
                                           [ref.local_index] +=
                        key.miss_members;
                  }
                }
              });
  match_span.End();

  // Matched accuracy + uncovered-scenario aggregation.
  size_t matched_correct = 0;
  for (size_t t = 0; t < forwards.size(); ++t) {
    const TestTrace& trace = result.tests[t];
    if (trace.correct && trace.total_related > 0) ++matched_correct;
    if (!trace.correct && trace.total_related == 0) {
      ++result.uncovered_tests;
      // Raw activation retained in the forward record — the network is
      // not run a second time for uncovered tests.
      forwards[t].activation.ForEachSetBit([&](size_t j) {
        result.uncovered_rule_freq[j] += rule_weights_[j];
      });
    }
  }
  result.matched_accuracy =
      forwards.empty()
          ? 0.0
          : static_cast<double>(matched_correct) / forwards.size();
  result.tracing_seconds = watch.ElapsedSeconds();

  // Process-wide tracer metrics (cached after first lookup).
  static telemetry::Counter& pass_counter =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.trace.passes");
  static telemetry::Counter& check_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.trace.tau_w_checks");
  static telemetry::Counter& hit_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.trace.related_records");
  static telemetry::Counter& uncovered_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.trace.uncovered_tests");
  static telemetry::Counter& scanned_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.trace.records_scanned");
  static telemetry::Counter& pruned_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.trace.blocks_pruned");
  static telemetry::Counter& fallback_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.trace.exact_fallbacks");
  static telemetry::Histogram& pass_hist =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "ctfl.trace.pass_us");
  pass_counter.Add(1);
  check_counter.Add(result.tau_w_checks);
  hit_counter.Add(result.related_records);
  uncovered_counter.Add(static_cast<int64_t>(result.uncovered_tests));
  scanned_counter.Add(result.records_scanned);
  pruned_counter.Add(result.blocks_pruned);
  fallback_counter.Add(result.exact_fallbacks);
  pass_hist.Observe(result.tracing_seconds * 1e6);
  return result;
}

}  // namespace ctfl
