#ifndef CTFL_TESTS_TRACE_ORACLE_H_
#define CTFL_TESTS_TRACE_ORACLE_H_

// Brute-force Eq. 4 oracle: the scalar per-record scan the blocked kernel
// replaced (DESIGN.md §10), rebuilding a whole TraceResult — related sets,
// per-record match counts, the §IV-B rule frequencies, uncovered-scenario
// guidance — from uploads and test forwards alone, and the related set of
// a single lookup. Overlaps accumulate in ascending rule order and compare
// with the tracer's fixed slack; each §IV-B cell adds its keys' terms in
// key order, so the production tracer must match it bit for bit. The
// blocked kernel's own work counters stay 0 there; Sweep, the kernel's
// per-rule stripe body, is the reference for them.

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "ctfl/core/tracer.h"
#include "ctfl/fl/participant.h"
#include "ctfl/kernel/trace_kernel.h"
#include "ctfl/nn/logical_net.h"

namespace ctfl {
namespace oracle {

inline constexpr double kRatioEps = 1e-9;

/// Every participant's record labels, [participant][local record].
inline std::vector<std::vector<uint8_t>> Labels(const Federation& fed) {
  std::vector<std::vector<uint8_t>> labels(fed.size());
  for (size_t p = 0; p < fed.size(); ++p) {
    for (const Instance& inst : fed[p].data.instances()) {
      labels[p].push_back(static_cast<uint8_t>(inst.label));
    }
  }
  return labels;
}

/// Deployed-inference forwards of `test`, one per-instance call each.
inline std::vector<TestForward> Forwards(const LogicalNet& net,
                                         const Dataset& test) {
  std::vector<TestForward> forwards(test.size());
  for (size_t t = 0; t < test.size(); ++t) {
    const Instance& inst = test.instance(t);
    forwards[t].label = static_cast<uint8_t>(inst.label);
    forwards[t].predicted = static_cast<uint8_t>(net.Predict(inst));
    forwards[t].activation = net.RuleActivations(inst);
  }
  return forwards;
}

/// The Eq. 4 weighted support of `activation` for class `c`: the rules of
/// class c with vote weight >= min_rule_weight that it activates,
/// ascending, with their weights.
inline std::vector<std::pair<int, double>> Support(const LogicalNet& net,
                                                   const Bitset& activation,
                                                   int c,
                                                   double min_rule_weight) {
  std::vector<std::pair<int, double>> supp;
  for (int j = 0; j < net.num_rules(); ++j) {
    const double w = net.RuleWeight(j);
    if (w < min_rule_weight || net.RuleClass(j) != c) continue;
    if (activation.Test(j)) supp.emplace_back(j, w);
  }
  return supp;
}

/// Scalar Eq. 4 decision for one record.
inline bool Related(const Bitset& record,
                    const std::vector<std::pair<int, double>>& supp,
                    double threshold) {
  double overlap = 0.0;
  for (const auto& [rule, weight] : supp) {
    if (record.Test(rule)) overlap += weight;
  }
  return !(overlap < threshold);
}

/// The kernel's bit-matrix by its definition, one bit at a time (the pack
/// the 64x64 transposes replaced): bit r % 64 of rows[rule][r / 64] is set
/// iff record r activates `rule`, and full_mask[b] holds the block's
/// valid lanes.
struct PackedBits {
  std::vector<std::vector<uint64_t>> rows;  ///< [rule][block]
  std::vector<uint64_t> full_mask;          ///< [block]
};

inline PackedBits Pack(const std::vector<const Bitset*>& records,
                       int num_rules) {
  const size_t blocks = (records.size() + 63) / 64;
  PackedBits packed;
  packed.rows.assign(static_cast<size_t>(num_rules),
                     std::vector<uint64_t>(blocks, 0));
  packed.full_mask.assign(blocks, 0);
  for (size_t r = 0; r < records.size(); ++r) {
    const uint64_t lane = uint64_t{1} << (r % 64);
    packed.full_mask[r / 64] |= lane;
    records[r]->ForEachSetBit(
        [&](size_t rule) { packed.rows[rule][r / 64] |= lane; });
  }
  return packed;
}

/// One TraceKernel::Match by the per-rule sweep: related words, match
/// count and work counters.
struct SweepResult {
  size_t related = 0;
  TraceKernelStats stats;
  /// Blocks whose lanes the bounds had all decided exactly after m - 1,
  /// or exactly after m, sorted rules (m >= 1): the cases the checkpoint
  /// schedule's last two entries exist for.
  int64_t last_decided_at_m_minus_1 = 0;
  int64_t last_decided_at_m = 0;
};

/// The kernel's work by its definition (DESIGN.md §10.2): every block
/// tests its lanes after each sorted rule — accept on the lanes the rule
/// hit, kill on those it missed — and stops once all are decided; lanes
/// no bound decides take ExactRelated. Writes kernel.num_blocks() words
/// of `out_related`. Match, which tests only at the support's
/// checkpoints, must reproduce it at every tier and thread count.
inline SweepResult Sweep(const TraceKernel& kernel,
                         const TraceKernel::Support& s,
                         uint64_t* out_related) {
  SweepResult res;
  const size_t m = s.sorted_rules.size();
  const bool accept_all = s.accept_q <= 0;
  const bool reject_all = s.kill_q[0] > 0;
  for (size_t b = 0; b < kernel.num_blocks(); ++b) {
    const uint64_t valid = kernel.full_mask_word(b);
    res.stats.records_scanned += std::popcount(valid);
    uint64_t related = 0;
    uint64_t undecided = 0;
    bool early_exit = m > 0;
    if (accept_all) {
      related = valid;
    } else if (!reject_all) {
      undecided = valid;
      early_exit = false;
      int32_t q[64] = {};
      for (size_t ri = 0; ri < m; ++ri) {
        const uint64_t word =
            kernel.rule_word(s.sorted_rules[ri], b) & undecided;
        const size_t c = ri + 1;
        for (int lane = 0; lane < 64; ++lane) {
          const uint64_t bit = uint64_t{1} << lane;
          if ((undecided & bit) == 0) continue;
          if (word & bit) {
            q[lane] += s.sorted_q[ri];
            if (c >= s.accept_from && q[lane] >= s.accept_q) {
              related |= bit;
              undecided &= ~bit;
            }
          } else if (s.kill_q[c] > 0 && q[lane] < s.kill_q[c]) {
            undecided &= ~bit;
          }
        }
        if (undecided == 0) {
          early_exit = c < m;
          res.last_decided_at_m_minus_1 += c + 1 == m;
          res.last_decided_at_m += c == m;
          break;
        }
      }
    }
    if (early_exit) ++res.stats.blocks_pruned;
    for (int lane = 0; lane < 64; ++lane) {
      if ((undecided >> lane & 1) == 0) continue;
      ++res.stats.exact_fallbacks;
      if (kernel.ExactRelated(s, b * 64 + static_cast<size_t>(lane))) {
        related |= uint64_t{1} << lane;
      }
    }
    out_related[b] = related;
    res.related += static_cast<size_t>(std::popcount(related));
  }
  return res;
}

/// Related records of one support set, as [participant] -> local indices
/// ascending. Returns false (and no records) when the support has no
/// weight: such a key matches nothing.
inline bool RelatedSet(const std::vector<std::vector<uint8_t>>& labels,
                       const std::vector<std::vector<Bitset>>& uploads,
                       const std::vector<std::pair<int, double>>& supp,
                       int c, double tau_w,
                       std::vector<std::vector<int>>* related) {
  related->assign(uploads.size(), {});
  double weight_sum = 0.0;
  for (const auto& entry : supp) weight_sum += entry.second;
  if (weight_sum <= 0.0) return false;
  const double threshold = tau_w * weight_sum - kRatioEps;
  for (size_t p = 0; p < uploads.size(); ++p) {
    for (size_t i = 0; i < uploads[p].size(); ++i) {
      if (labels[p][i] == c && Related(uploads[p][i], supp, threshold)) {
        (*related)[p].push_back(static_cast<int>(i));
      }
    }
  }
  return true;
}

/// The related set of a single lookup (ContributionTracer::Lookup).
inline TraceLookup Lookup(const LogicalNet& net,
                          const std::vector<std::vector<uint8_t>>& labels,
                          const std::vector<std::vector<Bitset>>& uploads,
                          const Bitset& activation, int predicted,
                          double tau_w, double min_rule_weight,
                          size_t max_records) {
  TraceLookup lookup;
  const auto supp = Support(net, activation, predicted, min_rule_weight);
  lookup.support_size = static_cast<int>(supp.size());
  for (const auto& entry : supp) lookup.support_weight += entry.second;
  lookup.related_count.assign(uploads.size(), 0);
  for (size_t p = 0; p < labels.size(); ++p) {
    for (uint8_t label : labels[p]) lookup.bucket_size += label == predicted;
  }
  std::vector<std::vector<int>> related;
  if (!RelatedSet(labels, uploads, supp, predicted, tau_w, &related)) {
    return lookup;
  }
  lookup.tau_w_checks = lookup.bucket_size;
  for (size_t p = 0; p < related.size(); ++p) {
    lookup.related_count[p] = static_cast<int>(related[p].size());
    lookup.total_related += related[p].size();
    for (int i : related[p]) {
      if (lookup.records.size() < max_records) {
        lookup.records.emplace_back(static_cast<int>(p), i);
      }
    }
  }
  return lookup;
}

/// A whole tracing pass over `forwards`, by brute force. With `dedup`
/// (what the tracer does) the tests of one (class, support) share a key;
/// without it every test is a key of its own, which leaves every per-test
/// field as it is and moves only the per-key counters and the last bits
/// of the §IV-B sums.
inline TraceResult Trace(const LogicalNet& net,
                         const std::vector<std::vector<uint8_t>>& labels,
                         const std::vector<std::vector<Bitset>>& uploads,
                         const std::vector<TestForward>& forwards,
                         const TracerConfig& config, bool dedup = true) {
  const int n = static_cast<int>(uploads.size());
  const int num_rules = net.num_rules();
  TraceResult result;
  result.num_participants = n;
  result.num_rules = num_rules;
  result.tests.resize(forwards.size());
  for (int p = 0; p < n; ++p) {
    result.train_match_correct.emplace_back(uploads[p].size(), 0);
    result.train_match_miss.emplace_back(uploads[p].size(), 0);
  }
  result.beneficial_rule_freq = Matrix(n, num_rules);
  result.harmful_rule_freq = Matrix(n, num_rules);
  result.uncovered_rule_freq.assign(num_rules, 0.0);

  // Keys: first-seen (class, support) groups, or one per test.
  struct Key {
    int c = 0;
    std::vector<std::pair<int, double>> supp;
    std::vector<size_t> members;
    int correct = 0;
    int miss = 0;
  };
  std::vector<Key> keys;
  size_t correct_total = 0;
  for (size_t t = 0; t < forwards.size(); ++t) {
    const TestForward& fwd = forwards[t];
    const int c = fwd.predicted;
    const bool correct = fwd.predicted == fwd.label;
    correct_total += correct;
    auto supp = Support(net, fwd.activation, c, config.min_rule_weight);
    result.tests[t].predicted = c;
    result.tests[t].correct = correct;
    result.tests[t].support_size = static_cast<int>(supp.size());
    size_t k = keys.size();
    if (dedup) {
      for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i].c == c && keys[i].supp == supp) k = i;
      }
    }
    if (k == keys.size()) keys.push_back({c, std::move(supp), {}, 0, 0});
    keys[k].members.push_back(t);
    (correct ? keys[k].correct : keys[k].miss) += 1;
  }
  result.num_keys = static_cast<int64_t>(keys.size());

  for (const Key& key : keys) {
    std::vector<std::vector<int>> related;
    const bool traced =
        RelatedSet(labels, uploads, key.supp, key.c, config.tau_w, &related);
    std::vector<int> counts(n, 0);
    size_t total = 0;
    for (int p = 0; p < n; ++p) {
      counts[p] = static_cast<int>(related[p].size());
      total += related[p].size();
      for (int i : related[p]) {
        result.train_match_correct[p][i] += key.correct;
        result.train_match_miss[p][i] += key.miss;
      }
    }
    if (traced) {
      for (int p = 0; p < n; ++p) {
        for (uint8_t label : labels[p]) result.tau_w_checks += label == key.c;
      }
    }
    result.related_records += static_cast<int64_t>(total);
    for (size_t t : key.members) {
      result.tests[t].related_count = counts;
      result.tests[t].total_related = total;
    }
    // §IV-B: every related record of p activating a supporting rule adds
    // weight * members to that cell, once per key, in key order.
    for (const auto& [rule, weight] : key.supp) {
      for (int p = 0; p < n; ++p) {
        int64_t cnt = 0;
        for (int i : related[p]) cnt += uploads[p][i].Test(rule);
        if (cnt == 0) continue;
        if (key.correct > 0) {
          result.beneficial_rule_freq(p, rule) +=
              (weight * key.correct) * static_cast<double>(cnt);
        }
        if (key.miss > 0) {
          result.harmful_rule_freq(p, rule) +=
              (weight * key.miss) * static_cast<double>(cnt);
        }
      }
    }
  }

  size_t matched_correct = 0;
  for (size_t t = 0; t < forwards.size(); ++t) {
    const TestTrace& trace = result.tests[t];
    if (trace.correct && trace.total_related > 0) ++matched_correct;
    if (!trace.correct && trace.total_related == 0) {
      ++result.uncovered_tests;
      for (int j = 0; j < num_rules; ++j) {
        const double w = net.RuleWeight(j);
        if (forwards[t].activation.Test(j) && w >= config.min_rule_weight) {
          result.uncovered_rule_freq[j] += w;
        }
      }
    }
  }
  if (!forwards.empty()) {
    result.global_accuracy =
        static_cast<double>(correct_total) / forwards.size();
    result.matched_accuracy =
        static_cast<double>(matched_correct) / forwards.size();
  }
  return result;
}

}  // namespace oracle
}  // namespace ctfl

#endif  // CTFL_TESTS_TRACE_ORACLE_H_
