#ifndef CTFL_CORE_TRACER_H_
#define CTFL_CORE_TRACER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ctfl/fl/participant.h"
#include "ctfl/kernel/trace_kernel.h"
#include "ctfl/mining/test_grouping.h"
#include "ctfl/nn/logical_net.h"

namespace ctfl {

/// Knobs of the rule-based tracing procedure (paper §III-C).
struct TracerConfig {
  /// Eq. 4 threshold: a training instance is related to a test instance if
  /// it activates at least tau_w of the test's weighted supporting rules.
  double tau_w = 0.9;
  /// Budgets of Max-Miner frequent-ruleset grouping (src/ctfl/mining/),
  /// the paper's prefilter. Tracing no longer groups: with the blocked
  /// kernel the prefilter cost more than it saved (EXPERIMENTS.md). Kept
  /// for the benchmark's `mining.group` probe.
  GroupingConfig grouping;
  /// Thread budget of the upload and tracing passes, the caller included
  /// (0 = hardware concurrency, 1 = serial). Participants upload in any
  /// order, each from its own DP stream; keys are matched in any order and
  /// the §IV-B sums folded in key order, so every output is bit-identical
  /// at any value.
  int num_threads = 0;
  /// Rules whose vote weight is below this are ignored during tracing
  /// (they carry no classification signal, only noise).
  double min_rule_weight = 1e-6;
  /// Local differential privacy on the uploaded training activation
  /// vectors: per-bit randomized response at this epsilon (paper §V:
  /// activation vectors "can be further perturbed to guarantee
  /// differential privacy"). 0 disables perturbation. Smaller epsilon =
  /// stronger privacy = noisier tracing.
  double dp_epsilon = 0.0;
  uint64_t dp_seed = 0x5eed;
  /// SIMD tier of the blocked Eq. 4 kernel (DESIGN.md §10; defaults to the
  /// process-wide runtime selection) and worker threads sharding each
  /// Match call's block range (1 = serial, 0 = hardware concurrency). Both
  /// are pure implementation selectors: results stay bit-identical, and
  /// neither enters the config digest (DESIGN.md §9).
  TraceIsa isa = CurrentTraceIsa();
  int trace_threads = 1;
};

/// Tracing outcome for one test instance.
struct TestTrace {
  int predicted = 0;
  bool correct = false;
  /// Number of supporting rules activated by the test instance.
  int support_size = 0;
  /// |D_i ∩ ct(x_te, y_te, tau_w)| per participant (Eq. 4).
  std::vector<int> related_count;
  size_t total_related = 0;
};

/// Full output of one tracing pass over the reserved test set — the raw
/// material for both allocation schemes (Eq. 5/6), loss tracing, and every
/// interpretability report, produced by a single pass (the paper's core
/// efficiency claim).
struct TraceResult {
  int num_participants = 0;
  int num_rules = 0;
  std::vector<TestTrace> tests;

  /// Per participant, per local training instance: how many correctly /
  /// incorrectly classified test instances it was related to. Never-
  /// matched records are a participant's useless-data ratio (§IV-B).
  std::vector<std::vector<int>> train_match_correct;
  std::vector<std::vector<int>> train_match_miss;

  /// Weight-regularized rule activation frequencies per participant
  /// accumulated over related (test, train) pairs: rows = participants,
  /// cols = rule coordinates. "Beneficial" counts come from correctly
  /// classified tests, "harmful" from misclassifications (§IV-B). Each
  /// cell sums its keys' terms in key order.
  Matrix beneficial_rule_freq;
  Matrix harmful_rule_freq;

  /// Weighted activation frequency of rules over misclassified tests with
  /// no related training data — the uncovered scenarios that should guide
  /// new data collection (§IV-B "Guide Data Collection").
  std::vector<double> uncovered_rule_freq;
  size_t uncovered_tests = 0;

  /// Test accuracy of the global model (= v(D_N), Eq. 1).
  double global_accuracy = 0.0;
  /// Fraction of test instances that are correct *and* have at least one
  /// related training record (the mass the micro scheme distributes).
  double matched_accuracy = 0.0;
  double tracing_seconds = 0.0;

  // ---- Tracer pass telemetry (feeds telemetry::RunTelemetry) -----------
  /// Distinct (class, supporting-rule-set) keys after dedup — the number
  /// of actual tracing tasks.
  int64_t num_keys = 0;
  /// Candidate (key, training-record) pairs tested against tau_w.
  int64_t tau_w_checks = 0;
  /// Pairs that met the tau_w threshold (total related-record hits).
  int64_t related_records = 0;
  /// Blocked-kernel work accounting: candidate records the kernel
  /// actually touched (always <= tau_w_checks) and 64-record blocks
  /// decided before their last rule.
  int64_t records_scanned = 0;
  int64_t blocks_pruned = 0;
  /// Lanes re-decided by the exact scalar comparison because neither
  /// integer pruning bound decided them.
  int64_t exact_fallbacks = 0;
};

/// One Eq. 4 lookup outside a tracing pass (ContributionTracer::Lookup):
/// the related set of a single (activation, predicted class) pair.
struct TraceLookup {
  /// Supporting rules of the predicted class and their total vote weight.
  int support_size = 0;
  double support_weight = 0.0;
  /// |D_i ∩ ct(x, y, tau_w)| per participant (Eq. 4).
  std::vector<int> related_count;
  size_t total_related = 0;
  /// The first `max_records` related records as (participant, local
  /// index), in participant then record order.
  std::vector<std::pair<int, int>> records;
  /// Training records of the predicted class, and how many of them were
  /// submitted to the tau_w comparison (0 when the support has no weight).
  int64_t bucket_size = 0;
  int64_t tau_w_checks = 0;
  TraceKernelStats stats;
};

/// Traces the test-performance gain of a trained global rule-based model
/// back to participants' training records via activated rules (paper
/// §III-C). Participants "upload" only rule-activation bitsets of their
/// data — mirroring the privacy boundary of §V.
class ContributionTracer {
 public:
  /// `net` and `federation` must outlive the tracer. Computes each
  /// participant's rule-activation upload locally (with optional DP
  /// perturbation, per `config.dp_epsilon`).
  ContributionTracer(const LogicalNet* net, const Federation* federation,
                     TracerConfig config);

  /// Same, but reuses already-uploaded activation bitsets instead of
  /// recomputing them — the restore path of a persisted contribution
  /// bundle (store/). `train_activations` must be indexed
  /// [participant][local record], sized to the federation, with every
  /// bitset as wide as the model's rule count. The bitsets are adopted
  /// verbatim: if they were DP-perturbed at snapshot time, tracing
  /// reproduces the originating run regardless of `config.dp_epsilon`.
  ContributionTracer(const LogicalNet* net, const Federation* federation,
                     TracerConfig config,
                     std::vector<std::vector<Bitset>> train_activations);

  /// Borrowing constructor: traces against externally owned labels and
  /// activation uploads with no Federation at all — the streaming-scorer
  /// path, which holds the uploads across rounds and re-traces them after
  /// each fold without copying. `labels` and `activations` must outlive
  /// the tracer, be index-aligned [participant][local record], and every
  /// bitset must be as wide as the model's rule count.
  ContributionTracer(const LogicalNet* net,
                     const std::vector<std::vector<uint8_t>>* labels,
                     const std::vector<std::vector<Bitset>>* activations,
                     TracerConfig config);

  const TracerConfig& config() const { return config_; }

  /// The per-participant activation uploads this tracer matches against
  /// (after any DP perturbation) — exactly what a bundle snapshot must
  /// persist for queries to reproduce this run.
  const std::vector<std::vector<Bitset>>& train_activations() const {
    return activations();
  }

  /// Computes the per-participant activation uploads exactly as the
  /// tracing constructor does: one DP stream per participant, seeded
  /// `dp_seed + p`, consumed in record order. Shared with the streaming
  /// delta-log emitter so per-round uploads bit-match a tracer built on
  /// the same model. When `train_accuracy` is non-null it receives the
  /// deployed model's accuracy over every participant's records, from
  /// the predictions of the same forward pass. Participants run on the
  /// compute pool under `config.num_threads`, with the same bits at any
  /// thread count.
  static std::vector<std::vector<Bitset>> ComputeUploadActivations(
      const LogicalNet& net, const Federation& federation,
      const TracerConfig& config, double* train_accuracy = nullptr);

  /// Single tracing pass over the reserved test set.
  TraceResult Trace(const Dataset& test) const;

  /// Tracing pass over precomputed test forwards (label, prediction, raw
  /// activation per test). Trace() is exactly a forward pass followed by
  /// this; the streaming scorer calls it directly with persisted forwards.
  TraceResult TraceForwards(const std::vector<TestForward>& forwards) const;

  /// Same pass at an explicit Eq. 4 threshold and kernel options instead
  /// of config().tau_w, config().isa and config().trace_threads — the
  /// query engine's re-evaluation at new parameters.
  TraceResult TraceForwards(const std::vector<TestForward>& forwards,
                            double tau_w,
                            const TraceMatchOptions& match) const;

  /// Eq. 4 related set of one activation (raw, un-masked) predicted as
  /// class `predicted` — the same per-key match a tracing pass runs, for
  /// one lookup. Materializes at most `max_records` record refs.
  TraceLookup Lookup(const Bitset& activation, int predicted, double tau_w,
                     const TraceMatchOptions& match,
                     size_t max_records) const;

 private:
  struct TrainRef {
    int participant;
    int local_index;
    const Bitset* activation;
  };

  /// Zeroes sub-threshold rule weights and builds the per-class masks.
  void BuildRuleMasks();
  /// Builds train_by_class_ refs over train_activations_ (which must
  /// already be populated and sized to the federation), orders each
  /// participant's records in activation order, then packs the per-class
  /// blocked kernels.
  void IndexTrainRefs();

  /// Eq. 4 for one support set of class `c` (ascending (rule, weight)
  /// pairs summing to `weight_sum` > 0): sets the related lanes of the
  /// class bucket in `words` (one per 64-record block), writes each
  /// participant's related count into `related_count`, and returns the
  /// total. Shared by every tracing pass and every lookup.
  size_t MatchKey(int c, const std::vector<std::pair<int, double>>& supp,
                  double weight_sum, double tau_w,
                  const TraceMatchOptions& match, uint64_t* words,
                  std::vector<int>* related_count,
                  TraceKernelStats* stats) const;

  /// The activation uploads tracing matches against: owned (computed or
  /// adopted) unless the borrowing constructor installed an external set.
  const std::vector<std::vector<Bitset>>& activations() const {
    return borrowed_activations_ != nullptr ? *borrowed_activations_
                                            : train_activations_;
  }

  const LogicalNet* net_;
  /// Null in borrowed mode (labels/activations supplied directly).
  const Federation* federation_;
  TracerConfig config_;

  /// Rule vote weights, with sub-threshold weights zeroed.
  std::vector<double> rule_weights_;
  /// Per class c: bitset of rule coordinates supporting c (and traceable).
  Bitset class_mask_[2];
  /// Per participant: activation bitsets of its training data (empty when
  /// borrowing).
  std::vector<std::vector<Bitset>> train_activations_;
  /// Borrowed-mode inputs (null otherwise).
  const std::vector<std::vector<uint8_t>>* borrowed_labels_ = nullptr;
  const std::vector<std::vector<Bitset>>* borrowed_activations_ = nullptr;
  /// Per class: refs to all training instances with that label, in
  /// participant order; within a participant, in activation order (their
  /// bits on the class's 64 heaviest rules descending, then upload order;
  /// DESIGN.md §10.1). Slot s is lane s of the class kernel.
  std::vector<TrainRef> train_by_class_[2];
  /// Per class: slot offsets of each participant's contiguous record range
  /// inside train_by_class_[c] (size n+1; participant p owns
  /// [ofs[p], ofs[p+1])). IndexTrainRefs appends participants in order and
  /// sorts only inside each range, so buckets are participant-contiguous —
  /// a tracing pass splits each key's related words at these bounds into
  /// the per-participant hits its §IV-B fold and record counts read.
  std::vector<size_t> class_part_offset_[2];
  /// Per class: transposed rule-major bit-matrix over the class bucket.
  TraceKernel class_kernel_[2];
};

}  // namespace ctfl

#endif  // CTFL_CORE_TRACER_H_
