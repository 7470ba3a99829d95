#ifndef CTFL_STORE_SNAPSHOT_H_
#define CTFL_STORE_SNAPSHOT_H_

// Builds BundleContent from the artifacts of one CTFL pass: the trained
// global model, the federation's uploaded rule-activation bitsets, and the
// reserved test set. The higher layers (core/pipeline, tools/ctfl_cli)
// call this right after tracing so a run leaves behind a queryable
// artifact — the train-once/evaluate-many split of the paper's single-pass
// claim.

#include <vector>

#include "ctfl/fl/participant.h"
#include "ctfl/store/bundle.h"

namespace ctfl {
namespace store {

/// Originating-run parameters and results stamped into the bundle meta.
/// Score vectors may be empty (e.g. bench fixtures that never allocated);
/// when present they must have one entry per participant.
struct SnapshotOptions {
  double tau_w = 0.9;
  int macro_delta = 1;
  double min_rule_weight = 1e-6;
  double dp_epsilon = 0.0;
  /// FailurePlan::Fingerprint() of the fault schedule the originating
  /// run trained under (0 = fault-free). Scores from a degraded run are
  /// a pure function of (seed, plan); the bundle records which plan.
  uint64_t failure_plan_fingerprint = 0;
  std::vector<double> micro_scores;
  std::vector<double> macro_scores;
  double global_accuracy = 0.0;
  double matched_accuracy = 0.0;
};

/// Assembles a bundle: extracts the rule model (symbolic text + r+-/w+-)
/// from `net`, snapshots `train_activations` (one bitset per training
/// record, exactly as the tracer used them — including any DP
/// perturbation), and re-runs deployed inference over `test` for the tests
/// section.
///
/// `train_activations` must be indexed [participant][local record] and
/// sized to the federation; pass ContributionTracer::train_activations().
Result<BundleContent> BuildBundleContent(
    const LogicalNet& net, const Federation& federation, const Dataset& test,
    const std::vector<std::vector<Bitset>>& train_activations,
    const SnapshotOptions& options);

}  // namespace store
}  // namespace ctfl

#endif  // CTFL_STORE_SNAPSHOT_H_
