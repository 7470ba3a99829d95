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
  if (config_.kernel == TraceKernelKind::kBlocked) {
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
}

TraceResult ContributionTracer::Trace(const Dataset& test) const {
  Stopwatch watch;
  // Forward pass: label, prediction and raw activation per test instance.
  // Everything downstream of this is a pure function of the forwards and
  // the uploads — TraceForwards — which the streaming scorer re-runs
  // against persisted forwards without the Dataset.
  std::vector<TestForward> forwards(test.size());
  {
    telemetry::Span forward_span("ctfl.trace.forwards");
    std::vector<uint8_t> predicted;
    std::vector<Bitset> activations;
    net_->InferDataset(test, &predicted, &activations);
    for (size_t t = 0; t < test.size(); ++t) {
      TestForward& fwd = forwards[t];
      fwd.label = static_cast<uint8_t>(test.instance(t).label);
      fwd.predicted = predicted[t];
      fwd.activation = std::move(activations[t]);
    }
  }
  TraceResult result = TraceForwards(forwards);
  result.tracing_seconds = watch.ElapsedSeconds();
  return result;
}

TraceResult ContributionTracer::TraceForwards(
    const std::vector<TestForward>& forwards) const {
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
      key.supp_list.reserve(support.Count());
      support.ForEachSetBit([&](size_t j) {
        key.supp_list.emplace_back(static_cast<int>(j), rule_weights_[j]);
        key.weight_sum += rule_weights_[j];
      });
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

  // ---- Optional Max-Miner grouping: per-key candidate prefilter. ---------
  // candidate_refs[k] = indices into train_by_class_[class of key k]; empty
  // optional means "use the full class bucket".
  telemetry::Span grouping_span("ctfl.trace.grouping");
  std::vector<std::vector<int>> candidate_refs(keys.size());
  std::vector<bool> has_prefilter(keys.size(), false);
  if (config_.use_max_miner && !keys.empty()) {
    for (int target = 0; target < 2; ++target) {
      std::vector<size_t> class_keys;
      std::vector<Bitset> supports;
      for (size_t k = 0; k < keys.size(); ++k) {
        if (keys[k].target_class == target && keys[k].weight_sum > 0.0) {
          class_keys.push_back(k);
          supports.push_back(keys[k].support);
        }
      }
      if (supports.size() < config_.grouping.min_instances) continue;
      const std::vector<TestGroup> groups = GroupActivations(
          supports, rule_weights_, config_.tau_w, config_.grouping);
      const auto& bucket = train_by_class_[target];
      for (const TestGroup& group : groups) {
        if (group.theta <= 0.0) continue;  // prefilter would pass everyone
        // Training candidates achieving w(act ∩ F) >= theta.
        std::vector<int> candidates;
        if (config_.kernel == TraceKernelKind::kBlocked) {
          // Kernel path: same theta comparison, phrased as kPlusEpsGe so
          // the exact fallback replays `overlap + kRatioEps >= theta`
          // bit-for-bit. Stats are deliberately discarded — the prefilter
          // is bookkept via tau_w_checks only, keeping the CI invariant
          // records_scanned <= tau_w_checks intact.
          std::vector<std::pair<int, double>> items;
          items.reserve(group.frequent_subset.size());
          for (int item : group.frequent_subset) {
            items.emplace_back(item, rule_weights_[item]);
          }
          const TraceKernel::Support prefilter = TraceKernel::Prepare(
              items, group.theta, TraceKernel::Cmp::kPlusEpsGe, kRatioEps);
          const TraceKernel& kernel = class_kernel_[target];
          std::vector<uint64_t> related(kernel.num_blocks(), 0);
          kernel.Match(prefilter, nullptr, related.data(), nullptr,
                       {config_.isa, config_.trace_threads});
          for (size_t b = 0; b < related.size(); ++b) {
            uint64_t word = related[b];
            while (word != 0) {
              const int lane = std::countr_zero(word);
              word &= word - 1;
              candidates.push_back(static_cast<int>(b * 64) + lane);
            }
          }
        } else {
          for (size_t r = 0; r < bucket.size(); ++r) {
            double overlap = 0.0;
            for (int item : group.frequent_subset) {
              if (bucket[r].activation->Test(item)) {
                overlap += rule_weights_[item];
              }
            }
            if (overlap + kRatioEps >= group.theta) {
              candidates.push_back(static_cast<int>(r));
            }
          }
        }
        for (size_t local : group.members) {
          const size_t k = class_keys[local];
          candidate_refs[k] = candidates;
          has_prefilter[k] = true;
        }
      }
    }
  }

  grouping_span.End();

  // ---- Per-key related-set computation (parallel) + accumulation. --------
  telemetry::Span match_span("ctfl.trace.match");
  struct Accumulator {
    Matrix beneficial;
    Matrix harmful;
    std::vector<std::vector<int>> match_correct;
    std::vector<std::vector<int>> match_miss;
    // Thread-local tracing stats, merged after the join (keeps the hot
    // tau_w loop free of shared atomics).
    int64_t tau_w_checks = 0;
    int64_t related_hits = 0;
    int64_t records_scanned = 0;
    int64_t blocks_pruned = 0;
    int64_t exact_fallbacks = 0;
    // Blocked-kernel per-key scratch (reused across keys to stay
    // allocation-free in the hot loop).
    std::vector<uint64_t> candidate_mask;
    std::vector<uint64_t> related_mask;
    // Legacy-path §IV-B scratch: related-activation counts per
    // (supporting-rule index, participant), reused across keys.
    std::vector<int64_t> rule_part_counts;
  };

  int num_threads = ResolveThreadCount(config_.num_threads);
  num_threads = std::max(1, std::min<int>(num_threads,
                                          static_cast<int>(keys.size())));

  std::vector<Accumulator> accumulators(num_threads);
  for (Accumulator& acc : accumulators) {
    acc.beneficial = Matrix(n, num_rules);
    acc.harmful = Matrix(n, num_rules);
    acc.match_correct.resize(n);
    acc.match_miss.resize(n);
    for (int p = 0; p < n; ++p) {
      acc.match_correct[p].assign(uploads[p].size(), 0);
      acc.match_miss[p].assign(uploads[p].size(), 0);
    }
  }

  auto process_key = [&](size_t k, Accumulator& acc) {
    const TraceKey& key = keys[k];
    if (key.weight_sum <= 0.0) return;  // nothing to match against
    const double threshold = config_.tau_w * key.weight_sum - kRatioEps;
    const auto& bucket = train_by_class_[key.target_class];

    std::vector<int> related_per_participant(n, 0);
    size_t total_related = 0;

    // Shared per-related-record bookkeeping (integer counters only — the
    // §IV-B frequency matrices are accumulated in closed form below, one
    // fused multiply per (participant, rule) cell on both paths).
    auto record_related = [&](const TrainRef& ref) {
      ++acc.related_hits;
      ++related_per_participant[ref.participant];
      ++total_related;
      if (key.correct_members > 0) {
        acc.match_correct[ref.participant][ref.local_index] +=
            key.correct_members;
      }
      if (key.miss_members > 0) {
        acc.match_miss[ref.participant][ref.local_index] +=
            key.miss_members;
      }
    };

    if (config_.kernel == TraceKernelKind::kBlocked) {
      const TraceKernel& kernel = class_kernel_[key.target_class];
      const size_t nb = kernel.num_blocks();
      const uint64_t* cmask = nullptr;
      if (has_prefilter[k]) {
        acc.candidate_mask.assign(nb, 0);
        for (int r : candidate_refs[k]) {
          acc.candidate_mask[static_cast<size_t>(r) / 64] |=
              1ULL << (static_cast<size_t>(r) % 64);
        }
        cmask = acc.candidate_mask.data();
        acc.tau_w_checks += static_cast<int64_t>(candidate_refs[k].size());
      } else {
        acc.tau_w_checks += static_cast<int64_t>(bucket.size());
      }
      const TraceKernel::Support support =
          TraceKernel::Prepare(key.supp_list, threshold);
      if (acc.related_mask.size() < nb) acc.related_mask.resize(nb);
      TraceKernelStats kstats;
      kernel.Match(support, cmask, acc.related_mask.data(), &kstats,
                   {config_.isa, config_.trace_threads});
      acc.records_scanned += kstats.records_scanned;
      acc.blocks_pruned += kstats.blocks_pruned;
      acc.exact_fallbacks += kstats.exact_fallbacks;
      for (size_t b = 0; b < nb; ++b) {
        uint64_t word = acc.related_mask[b];
        while (word != 0) {
          const int lane = std::countr_zero(word);
          word &= word - 1;
          record_related(bucket[b * 64 + static_cast<size_t>(lane)]);
        }
      }
      // Weight-regularized rule activation frequencies (§IV-B) in closed
      // form: within one key every related record of participant p adds
      // the same `weight * members` to cell (p, rule), so the sweep
      // collapses to one fused multiply per cell, with the count taken
      // from masked popcounts of rule-row ∧ related words. Class buckets
      // are participant-contiguous (IndexTrainRefs appends participants
      // in order), so each participant is one [lo, hi) slot range.
      const std::vector<size_t>& offsets =
          class_part_offset_[key.target_class];
      for (const auto& [rule, weight] : key.supp_list) {
        for (int p = 0; p < n; ++p) {
          const size_t lo = offsets[p];
          const size_t hi = offsets[p + 1];
          if (lo == hi) continue;
          const size_t b_lo = lo / 64;
          const size_t b_hi = (hi - 1) / 64;
          uint64_t first =
              kernel.rule_word(rule, b_lo) & acc.related_mask[b_lo];
          first &= ~0ULL << (lo % 64);
          int64_t cnt = 0;
          if (b_lo == b_hi) {
            if (hi % 64 != 0) first &= ~0ULL >> (64 - hi % 64);
            cnt = std::popcount(first);
          } else {
            cnt = std::popcount(first);
            for (size_t b = b_lo + 1; b < b_hi; ++b) {
              cnt += std::popcount(kernel.rule_word(rule, b) &
                                   acc.related_mask[b]);
            }
            uint64_t last =
                kernel.rule_word(rule, b_hi) & acc.related_mask[b_hi];
            if (hi % 64 != 0) last &= ~0ULL >> (64 - hi % 64);
            cnt += std::popcount(last);
          }
          if (cnt == 0) continue;
          if (key.correct_members > 0) {
            acc.beneficial(p, rule) +=
                (weight * key.correct_members) * static_cast<double>(cnt);
          }
          if (key.miss_members > 0) {
            acc.harmful(p, rule) +=
                (weight * key.miss_members) * static_cast<double>(cnt);
          }
        }
      }
    } else {
      // Legacy §IV-B in the same closed form as the blocked path: count
      // related activations per (supporting rule, participant) during the
      // scan, then emit one fused multiply per cell in the identical
      // rule-outer / participant-ascending order — same per-cell value,
      // same add sequence, so the two paths stay bit-identical.
      const size_t num_supp = key.supp_list.size();
      acc.rule_part_counts.assign(num_supp * static_cast<size_t>(n), 0);
      auto check_ref = [&](const TrainRef& ref) {
        ++acc.tau_w_checks;
        double overlap = 0.0;
        for (const auto& [rule, weight] : key.supp_list) {
          if (ref.activation->Test(rule)) overlap += weight;
        }
        if (overlap < threshold) return;
        record_related(ref);
        int64_t* counts = acc.rule_part_counts.data() + ref.participant;
        for (size_t si = 0; si < num_supp; ++si) {
          if (ref.activation->Test(key.supp_list[si].first)) {
            counts[si * static_cast<size_t>(n)] += 1;
          }
        }
      };

      if (has_prefilter[k]) {
        for (int r : candidate_refs[k]) check_ref(bucket[r]);
      } else {
        for (const TrainRef& ref : bucket) check_ref(ref);
      }
      for (size_t si = 0; si < num_supp; ++si) {
        const auto& [rule, weight] = key.supp_list[si];
        for (int p = 0; p < n; ++p) {
          const int64_t cnt =
              acc.rule_part_counts[si * static_cast<size_t>(n) + p];
          if (cnt == 0) continue;
          if (key.correct_members > 0) {
            acc.beneficial(p, rule) +=
                (weight * key.correct_members) * static_cast<double>(cnt);
          }
          if (key.miss_members > 0) {
            acc.harmful(p, rule) +=
                (weight * key.miss_members) * static_cast<double>(cnt);
          }
        }
      }
    }

    for (size_t t : key.members) {
      result.tests[t].related_count = related_per_participant;
      result.tests[t].total_related = total_related;
    }
  };

  if (num_threads == 1 || keys.size() < 2) {
    for (size_t k = 0; k < keys.size(); ++k) process_key(k, accumulators[0]);
  } else {
    ThreadPool pool(num_threads);
    const size_t chunk = (keys.size() + num_threads - 1) / num_threads;
    for (int w = 0; w < num_threads; ++w) {
      const size_t lo = static_cast<size_t>(w) * chunk;
      const size_t hi = std::min(keys.size(), lo + chunk);
      if (lo >= hi) break;
      pool.Submit([&, w, lo, hi] {
        for (size_t k = lo; k < hi; ++k) process_key(k, accumulators[w]);
      });
    }
    pool.Wait();
  }

  // Merge thread-local accumulators.
  for (const Accumulator& acc : accumulators) {
    result.beneficial_rule_freq.Axpy(1.0, acc.beneficial);
    result.harmful_rule_freq.Axpy(1.0, acc.harmful);
    result.tau_w_checks += acc.tau_w_checks;
    result.related_records += acc.related_hits;
    result.records_scanned += acc.records_scanned;
    result.blocks_pruned += acc.blocks_pruned;
    result.exact_fallbacks += acc.exact_fallbacks;
    for (int p = 0; p < n; ++p) {
      for (size_t i = 0; i < acc.match_correct[p].size(); ++i) {
        result.train_match_correct[p][i] += acc.match_correct[p][i];
        result.train_match_miss[p][i] += acc.match_miss[p][i];
      }
    }
  }
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
