#ifndef CTFL_STORE_QUERY_ENGINE_H_
#define CTFL_STORE_QUERY_ENGINE_H_

// Serving side of the contribution bundle store: memory-loads a bundle and
// answers contribution / interpretability queries with no retraining and
// no recomputation of activation vectors. The expensive artifacts of the
// single training+inference pass — model parameters, rule weights, and
// every rule-activation bitset — come straight from the bundle; queries
// only redo the cheap Eq. 4 overlap comparisons.
//
// Every answer goes through one ContributionTracer over the bundle's
// labels and uploads: Related()/RelatedForTest() are its single-key
// lookups, Evaluate() is its TraceForwards pass over the stored test
// forwards followed by core/allocation and core/interpret. So for the
// originating run's parameters Evaluate() reproduces the run's micro/macro
// scores bit-identically, and Related() agrees with ContributionTracer::
// Trace on every instance, by construction.

#include <memory>
#include <string>
#include <vector>

#include "ctfl/kernel/trace_kernel.h"
#include "ctfl/store/bundle.h"

namespace ctfl {
namespace store {

/// Knobs of a single related-record lookup.
struct QueryOptions {
  /// Eq. 4 threshold; defaults to the originating run's tau_w when < 0.
  double tau_w = -1.0;
  /// Max (participant, record) refs materialized in RelatedResult::records
  /// (0 = counts only).
  size_t max_records = 0;
  /// SIMD tier of the blocked kernel (defaults to the process-wide runtime
  /// selection) and worker threads sharding each Match call (1 = serial,
  /// 0 = hardware concurrency). Pure implementation selectors — results
  /// stay bit-identical — and *local* ones: neither is part of the serve
  /// wire format.
  TraceIsa isa = CurrentTraceIsa();
  int trace_threads = 1;
};

struct RecordRef {
  int participant = 0;
  int local_index = 0;
};

/// Outcome of one Eq. 4 related-record lookup.
struct RelatedResult {
  int predicted = 0;
  int support_size = 0;        ///< supporting rules of the predicted class
  double support_weight = 0.0; ///< their total vote weight
  std::vector<int> related_count;  ///< per participant
  size_t total_related = 0;
  /// The first max_records related records in ascending (participant,
  /// local index).
  std::vector<RecordRef> records;
  // Lookup cost accounting.
  int64_t bucket_size = 0;   ///< training records of the predicted class
  int64_t tau_w_checks = 0;  ///< candidates submitted to Eq. 4 matching
  /// Always 0: the posting-list prefilter they counted is gone. Kept so
  /// the wire layout and its readers stay unchanged.
  int64_t postings_scanned = 0;
  int64_t candidates_pruned = 0;
  /// Blocked-kernel work accounting: candidates the kernel actually
  /// touched (always <= tau_w_checks) and 64-record blocks decided before
  /// their last rule.
  int64_t records_scanned = 0;
  int64_t blocks_pruned = 0;
  /// Lanes re-decided by the exact scalar comparison because neither
  /// integer pruning bound decided them.
  int64_t exact_fallbacks = 0;
};

/// One rule with its weight-regularized tracing frequency + symbolic text.
struct RuleStat {
  int rule = 0;
  double frequency = 0.0;
  std::string text;
};

/// Per-participant interpretability summary (paper section IV-B) computed
/// from the bundle alone.
struct ParticipantSummary {
  int participant = 0;
  std::string name;
  size_t data_size = 0;
  std::vector<RuleStat> beneficial;
  std::vector<RuleStat> harmful;
  double useless_ratio = 0.0;
};

/// Parameters of a batch re-evaluation; negative values default to the
/// originating run's parameters.
struct EvalOptions {
  double tau_w = -1.0;
  int delta = -1;
  int top_k = 5;
  /// Blocked-kernel implementation selectors (see QueryOptions).
  TraceIsa isa = CurrentTraceIsa();
  int trace_threads = 1;
};

/// Batch query answer: micro/macro scores under the requested parameters
/// plus the interpretability artifacts of section IV-B.
struct QueryReport {
  double tau_w = 0.0;
  int delta = 1;
  std::vector<double> micro;
  std::vector<double> macro;
  double global_accuracy = 0.0;
  double matched_accuracy = 0.0;
  size_t uncovered_tests = 0;
  std::vector<RuleStat> uncovered_rules;
  std::vector<ParticipantSummary> participants;
  // Evaluation cost accounting.
  int64_t keys = 0;  ///< distinct (class, support-set) tracing tasks
  int64_t tau_w_checks = 0;
  /// Always 0 (see RelatedResult).
  int64_t postings_scanned = 0;
  int64_t candidates_pruned = 0;
  /// Blocked-kernel work accounting.
  int64_t records_scanned = 0;
  int64_t blocks_pruned = 0;
  int64_t exact_fallbacks = 0;
};

class QueryEngine {
 public:
  /// Reads + validates the bundle file and builds the engine (restores the
  /// model and packs the tracer's per-class kernels).
  static Result<QueryEngine> Open(const std::string& path);
  /// Builds the engine over already-decoded content. Content whose label,
  /// upload, test or rule shapes disagree with each other or with the
  /// restored model is an InvalidArgument, never a crash.
  static Result<QueryEngine> FromContent(BundleContent content);

  QueryEngine(QueryEngine&&) noexcept;
  QueryEngine& operator=(QueryEngine&&) = delete;
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  ~QueryEngine();

  /// The decoded bundle, except that the training activations were moved
  /// into the engine's tracer: participants[p] keeps its labels only.
  const BundleContent& bundle() const { return content_; }
  const LogicalNet& model() const;
  int num_participants() const { return content_.num_participants(); }
  /// Originating-run parameters (the Evaluate/Related defaults).
  double origin_tau_w() const { return content_.meta.tau_w; }
  int origin_delta() const { return content_.meta.macro_delta; }

  /// Eq. 4 related-record lookup for a new instance: runs deployed
  /// inference on the restored model, then matches the stored training
  /// activations.
  RelatedResult Related(const Instance& instance,
                        const QueryOptions& options = {}) const;

  /// Same lookup for stored test instance `test_index`, reusing its
  /// persisted activation + prediction (no model inference at all).
  RelatedResult RelatedForTest(size_t test_index,
                               const QueryOptions& options = {}) const;

  /// Batch micro/macro recomputation + interpretability summaries over the
  /// bundle's reserved test set. One tracing pass over deduplicated
  /// support sets; no retraining, no activation recomputation.
  QueryReport Evaluate(const EvalOptions& options = {}) const;

 private:
  /// The restored model, the uploads and the tracer borrowing both, at one
  /// heap address that moves of the engine leave in place.
  struct Core;

  QueryEngine(BundleContent content, std::unique_ptr<const Core> core);

  RelatedResult Lookup(const Bitset& activation, int predicted,
                       const QueryOptions& options) const;

  BundleContent content_;
  std::unique_ptr<const Core> core_;
};

}  // namespace store
}  // namespace ctfl

#endif  // CTFL_STORE_QUERY_ENGINE_H_
