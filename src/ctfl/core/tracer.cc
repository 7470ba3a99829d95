#include "ctfl/core/tracer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_map>

#include "ctfl/fl/privacy.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/bit_transpose.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/stopwatch.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {
namespace {

constexpr double kRatioEps = 1e-9;
/// Keys per thread in one match batch: enough for every thread to stay
/// busy, few enough that the batch's staged hits stay small.
constexpr size_t kBatchKeysPerThread = 32;
/// Blocks per task of the per-record counts.
constexpr size_t kCountBlocks = 16;

/// A key's related lanes in one 64-record block, masked to one
/// participant's slots. A key's hits run in participant order, which is
/// also block order; a block that straddles two participants gives two.
struct Hit {
  uint32_t block;
  uint32_t participant;
  uint64_t word;
};

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
  std::span<const Hit> hits;  // set by the match
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

/// Calls fn(b, w) for every lane word b = lane / 64 that holds lanes of
/// [lo, hi), with w = word(b) masked to those lanes.
template <typename WordFn, typename Fn>
void ForEachLaneWord(size_t lo, size_t hi, WordFn word, Fn fn) {
  if (lo >= hi) return;
  const size_t b_lo = lo / 64;
  const size_t b_hi = (hi - 1) / 64;
  for (size_t b = b_lo; b <= b_hi; ++b) {
    uint64_t w = word(b);
    if (b == b_lo) w &= ~0ULL << (lo % 64);
    if (b == b_hi && hi % 64 != 0) w &= ~0ULL >> (64 - hi % 64);
    fn(b, w);
  }
}

/// Set bits among lanes [lo, hi) of the lane words word(b), b = lane / 64.
template <typename WordFn>
int64_t CountLanes(size_t lo, size_t hi, WordFn word) {
  int64_t count = 0;
  ForEachLaneWord(lo, hi, word,
                  [&](size_t, uint64_t w) { count += std::popcount(w); });
  return count;
}

/// Most hits a key of a bucket with participant slot ranges `offsets` can
/// have: one per (block, participant) pair that a range covers.
size_t MaxHits(const std::vector<size_t>& offsets) {
  size_t hits = 0;
  for (size_t p = 0; p + 1 < offsets.size(); ++p) {
    if (offsets[p] == offsets[p + 1]) continue;
    hits += (offsets[p + 1] - 1) / 64 - offsets[p] / 64 + 1;
  }
  return hits;
}

/// Sort keys of `records`: bit 63 - k of a record's key is its bit on
/// rule `heavy[k]` (at most 64 rules), taken from one 64x64 transpose
/// per (64 records, word column holding a heavy rule) and one more that
/// turns the gathered rule rows back into per-record keys.
std::vector<uint64_t> ActivationKeys(const std::vector<const Bitset*>& records,
                                     const std::vector<int>& heavy,
                                     size_t num_words) {
  // Per word column: (row of the transposed column, key bit).
  std::vector<std::vector<std::pair<int, int>>> picks(num_words);
  for (size_t k = 0; k < heavy.size(); ++k) {
    picks[heavy[k] / 64].emplace_back(heavy[k] % 64, 63 - static_cast<int>(k));
  }
  std::vector<uint64_t> keys(records.size());
  uint64_t m[64];
  uint64_t key_rows[64];
  for (size_t lo = 0; lo < records.size(); lo += 64) {
    const size_t lanes = std::min<size_t>(64, records.size() - lo);
    std::fill(key_rows, key_rows + 64, uint64_t{0});
    for (size_t col = 0; col < num_words; ++col) {
      if (picks[col].empty()) continue;
      for (size_t i = 0; i < lanes; ++i) m[i] = records[lo + i]->words()[col];
      std::fill(m + lanes, m + 64, uint64_t{0});
      TransposeBits64(m);
      for (const auto& [row, bit] : picks[col]) key_rows[bit] = m[row];
    }
    TransposeBits64(key_rows);
    std::copy(key_rows, key_rows + lanes, keys.begin() + lo);
  }
  return keys;
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
  // this against the same model reproduces the uploads bit-for-bit, at any
  // thread count. The forward pass itself runs in 64-record blocks
  // (InferDataset); the randomized response then walks the records in
  // order. Participants fan out over the compute pool, largest first so
  // the longest upload starts early; each counts its own correct
  // predictions, summed (integers) afterwards.
  std::vector<std::vector<Bitset>> uploads(federation.size());
  std::vector<size_t> correct(federation.size(), 0);
  std::vector<size_t> order(federation.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return federation[a].data.size() > federation[b].data.size();
  });
  ParallelFor(config.num_threads, 0, order.size(), [&](size_t k) {
    const size_t p = order[k];
    const Dataset& data = federation[p].data;
    std::vector<uint8_t> predicted;
    net.InferDataset(data, train_accuracy != nullptr ? &predicted : nullptr,
                     &uploads[p]);
    if (train_accuracy != nullptr) {
      for (size_t i = 0; i < data.size(); ++i) {
        if (predicted[i] == data.instance(i).label) ++correct[p];
      }
    }
    if (config.dp_epsilon > 0.0) {
      Rng dp_rng(config.dp_seed + p);
      for (Bitset& activation : uploads[p]) {
        activation = RandomizedResponse(activation, config.dp_epsilon, dp_rng);
      }
    }
  });
  if (train_accuracy != nullptr) {
    size_t records = 0;
    size_t total = 0;
    for (size_t p = 0; p < federation.size(); ++p) {
      records += federation[p].data.size();
      total += correct[p];
    }
    *train_accuracy =
        records > 0 ? static_cast<double>(total) / records : 0.0;
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
  const int num_rules = net_->num_rules();
  const double lightest = -std::numeric_limits<double>::infinity();
  for (int c = 0; c < 2; ++c) {
    // Activation order: a 64-record block stops at its last undecided
    // lane, so records that activate the same heavy rules should share
    // blocks. Each participant's records are ordered by their bits on the
    // class's 64 heaviest traceable rules (weight descending, then rule
    // index; a NaN weight ranks lightest), heaviest in the key's top bit,
    // keys descending, then upload order. Participants stay contiguous.
    std::vector<int> heavy;
    class_mask_[c].ForEachSetBit(
        [&](size_t j) { heavy.push_back(static_cast<int>(j)); });
    const auto weight = [&](int j) {
      return std::isnan(rule_weights_[j]) ? lightest : rule_weights_[j];
    };
    const auto heavier = [&](int a, int b) {
      if (weight(a) != weight(b)) return weight(a) > weight(b);
      return a < b;
    };
    const size_t num_heavy = std::min<size_t>(heavy.size(), 64);
    std::partial_sort(heavy.begin(), heavy.begin() + num_heavy, heavy.end(),
                      heavier);
    heavy.resize(num_heavy);

    std::vector<TrainRef>& bucket = train_by_class_[c];
    std::vector<const Bitset*> records;
    records.reserve(bucket.size());
    for (const TrainRef& ref : bucket) records.push_back(ref.activation);
    const std::vector<uint64_t> keys = ActivationKeys(
        records, heavy, (static_cast<size_t>(num_rules) + 63) / 64);
    // (~key, slot) ascending is key descending, then upload order.
    std::vector<std::pair<uint64_t, size_t>> order(bucket.size());
    for (size_t s = 0; s < bucket.size(); ++s) order[s] = {~keys[s], s};
    const std::vector<size_t>& offsets = class_part_offset_[c];
    for (size_t p = 0; p < n; ++p) {
      std::sort(order.begin() + offsets[p], order.begin() + offsets[p + 1]);
    }
    std::vector<TrainRef> sorted;
    sorted.reserve(bucket.size());
    for (size_t s = 0; s < order.size(); ++s) {
      sorted.push_back(bucket[order[s].second]);
      records[s] = sorted.back().activation;
    }
    bucket = std::move(sorted);
    class_kernel_[c] = TraceKernel(std::move(records), num_rules);
  }
}

size_t ContributionTracer::MatchKey(
    int c, const std::vector<std::pair<int, double>>& supp,
    double weight_sum, double tau_w, const TraceMatchOptions& match,
    uint64_t* words, std::vector<int>* related_count,
    TraceKernelStats* stats) const {
  const double threshold = tau_w * weight_sum - kRatioEps;
  const size_t total = class_kernel_[c].Match(
      TraceKernel::Prepare(supp, threshold), words, stats, match);
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
  // A participant's slots hold its records in activation order, not
  // upload order: gather its related local indices and keep the least.
  const std::vector<size_t>& offsets = class_part_offset_[predicted];
  std::vector<int> local;
  for (size_t p = 0;
       p + 1 < offsets.size() && lookup.records.size() < max_records; ++p) {
    if (lookup.related_count[p] == 0) continue;
    local.clear();
    ForEachLaneWord(
        offsets[p], offsets[p + 1], [&](size_t b) { return words[b]; },
        [&](size_t b, uint64_t w) {
          for (; w != 0; w &= w - 1) {
            local.push_back(bucket[b * 64 + std::countr_zero(w)].local_index);
          }
        });
    const size_t take =
        std::min(local.size(), max_records - lookup.records.size());
    std::partial_sort(local.begin(), local.begin() + take, local.end());
    for (size_t i = 0; i < take; ++i) {
      lookup.records.emplace_back(static_cast<int>(p), local[i]);
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

  // ---- Build tracing keys. Tests with the same (class, supporting rules)
  // have provably identical related sets, so they share one key and are
  // traced once.
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

  // ---- Match (parallel over keys, any order), in batches. Each key
  // matches into a per-thread scratch of its class bucket's words, then
  // keeps its hits: the nonzero words split at participant bounds. It
  // stages them at the front of the batch's stage, which is reserved for
  // the batch's most hits and written only where hits land; the calling
  // thread then copies each batch's hits into storage of their exact size.
  // So hit memory follows the hits, and none of it is allocated in a
  // worker's malloc arena. Integer results only; every floating-point sum
  // waits for the key-ordered fold below.
  telemetry::Span match_span("ctfl.trace.match");
  const size_t max_hits[2] = {MaxHits(class_part_offset_[0]),
                              MaxHits(class_part_offset_[1])};
  std::vector<uint32_t> class_keys[2];  // traced keys, ascending
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].weight_sum <= 0.0) continue;  // nothing to match against
    class_keys[keys[k].target_class].push_back(static_cast<uint32_t>(k));
    result.tau_w_checks +=
        static_cast<int64_t>(train_by_class_[keys[k].target_class].size());
  }
  std::vector<TraceKernelStats> key_stats(keys.size());
  std::vector<size_t> key_related(keys.size(), 0);
  std::vector<std::vector<Hit>> hit_store;  // one per batch
  std::unique_ptr<Hit[]> stage;
  size_t stage_size = 0;
  std::atomic<size_t> staged{0};
  // Per key: (first, count) of its hits in the stage.
  std::vector<std::pair<size_t, size_t>> key_staged(keys.size());
  const size_t batch =
      kBatchKeysPerThread *
      static_cast<size_t>(ResolveThreadCount(config_.num_threads));
  for (size_t lo = 0; lo < keys.size(); lo += batch) {
    const size_t hi = std::min(keys.size(), lo + batch);
    size_t most = 0;
    for (size_t k = lo; k < hi; ++k) {
      if (keys[k].weight_sum > 0.0) most += max_hits[keys[k].target_class];
    }
    if (most > stage_size) {
      stage = std::make_unique_for_overwrite<Hit[]>(most);
      stage_size = most;
    }
    staged = 0;
    ParallelFor(config_.num_threads, lo, hi, [&](size_t k) {
      const TraceKey& key = keys[k];
      if (key.weight_sum <= 0.0) return;
      const int c = key.target_class;
      static thread_local std::vector<uint64_t> words;
      static thread_local std::vector<Hit> found;
      words.resize(class_kernel_[c].num_blocks());
      std::vector<int>& related_count =
          result.tests[key.members.front()].related_count;
      key_related[k] =
          MatchKey(c, key.supp_list, key.weight_sum, tau_w, match,
                   words.data(), &related_count, &key_stats[k]);
      for (size_t t : key.members) {
        if (t != key.members.front()) {
          result.tests[t].related_count = related_count;
        }
        result.tests[t].total_related = key_related[k];
      }
      const std::vector<size_t>& offsets = class_part_offset_[c];
      found.clear();
      for (size_t p = 0; p + 1 < offsets.size(); ++p) {
        if (related_count[p] == 0) continue;
        ForEachLaneWord(
            offsets[p], offsets[p + 1], [&](size_t b) { return words[b]; },
            [&](size_t b, uint64_t w) {
              if (w != 0) {
                found.push_back({static_cast<uint32_t>(b),
                                 static_cast<uint32_t>(p), w});
              }
            });
      }
      const size_t first = staged.fetch_add(found.size());
      std::copy(found.begin(), found.end(), stage.get() + first);
      key_staged[k] = {first, found.size()};
    });
    std::vector<Hit>& hits = hit_store.emplace_back();
    hits.reserve(staged);
    for (size_t k = lo; k < hi; ++k) {
      const auto [first, count] = key_staged[k];
      keys[k].hits = {hits.data() + hits.size(), count};
      hits.insert(hits.end(), stage.get() + first,
                  stage.get() + first + count);
    }
  }
  stage.reset();
  for (size_t k = 0; k < keys.size(); ++k) {
    result.related_records += static_cast<int64_t>(key_related[k]);
    result.records_scanned += key_stats[k].records_scanned;
    result.blocks_pruned += key_stats[k].blocks_pruned;
    result.exact_fallbacks += key_stats[k].exact_fallbacks;
  }
  match_span.End();

  // ---- §IV-B weight-regularized rule frequencies, folded in key order:
  // columns in parallel, each cell's terms added for keys ascending — the
  // serial loop's sequence at any thread count. Within one key every
  // related record of participant p adds the same `weight * members` to
  // cell (p, rule), so a key contributes one multiply per cell, counted
  // from popcounts of rule word ∧ hit word over the key's hits of p.
  telemetry::Span fold_span("ctfl.trace.fold");
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
      const TraceKernel& kernel = class_kernel_[key.target_class];
      const std::span<const Hit> hits = key.hits;
      for (size_t i = 0; i < hits.size();) {
        const uint32_t p = hits[i].participant;
        int64_t cnt = 0;
        for (; i < hits.size() && hits[i].participant == p; ++i) {
          cnt += std::popcount(kernel.rule_word(rule, hits[i].block) &
                               hits[i].word);
        }
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
  fold_span.End();

  // ---- Per-record match counts (integer sums), runs of kCountBlocks
  // blocks in parallel: each run's records belong to it alone. A run
  // sums its lanes' counts from the hits in its blocks, in slot order, and
  // stores each record's once: slots hold records in activation order, so
  // adding in place would scatter every hit.
  telemetry::Span counts_span("ctfl.trace.counts");
  const size_t class_runs[2] = {
      (class_kernel_[0].num_blocks() + kCountBlocks - 1) / kCountBlocks,
      (class_kernel_[1].num_blocks() + kCountBlocks - 1) / kCountBlocks};
  ParallelFor(
      config_.num_threads, 0, class_runs[0] + class_runs[1], [&](size_t i) {
        const int c = i < class_runs[0] ? 0 : 1;
        const size_t b_lo = (c == 0 ? i : i - class_runs[0]) * kCountBlocks;
        const size_t b_hi = b_lo + kCountBlocks;
        int correct[kCountBlocks * 64] = {};
        int miss[kCountBlocks * 64] = {};
        for (uint32_t k : class_keys[c]) {
          const TraceKey& key = keys[k];
          auto hit = std::lower_bound(
              key.hits.begin(), key.hits.end(), b_lo,
              [](const Hit& h, size_t b) { return h.block < b; });
          for (; hit != key.hits.end() && hit->block < b_hi; ++hit) {
            const size_t base = (hit->block - b_lo) * 64;
            for (uint64_t w = hit->word; w != 0; w &= w - 1) {
              const size_t lane = base + std::countr_zero(w);
              correct[lane] += key.correct_members;
              miss[lane] += key.miss_members;
            }
          }
        }
        const std::vector<TrainRef>& bucket = train_by_class_[c];
        const size_t slot_hi = std::min(bucket.size(), b_hi * 64);
        for (size_t s = b_lo * 64; s < slot_hi; ++s) {
          const TrainRef& ref = bucket[s];
          result.train_match_correct[ref.participant][ref.local_index] =
              correct[s - b_lo * 64];
          result.train_match_miss[ref.participant][ref.local_index] =
              miss[s - b_lo * 64];
        }
      });
  counts_span.End();

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
