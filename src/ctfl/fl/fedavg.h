#ifndef CTFL_FL_FEDAVG_H_
#define CTFL_FL_FEDAVG_H_

#include <functional>
#include <vector>

#include "ctfl/fl/failure.h"
#include "ctfl/fl/participant.h"
#include "ctfl/nn/logical_net.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/util/result.h"

namespace ctfl {

/// FedAvg orchestration parameters (McMahan et al.).
struct FedAvgConfig {
  int rounds = 5;
  int local_epochs = 2;
  /// Local optimizer settings; its `epochs` field is overridden by
  /// `local_epochs` each round and its `seed` is re-derived per (round,
  /// client) so clients with identical data never emit byte-identical
  /// updates.
  TrainConfig local;
  /// Aggregate each round through pairwise-masked secure aggregation
  /// (SecureAggregator): the server only ever sees masked updates whose
  /// sum equals the true weighted sum. Numerically equivalent to plain
  /// FedAvg up to floating-point rounding. Under partial participation
  /// the masks are derived over the surviving cohort, so a dropped
  /// client never poisons the round (DESIGN.md §11).
  bool secure_aggregation = false;
  uint64_t secure_session_seed = 0xa66;
  /// Deterministic fault schedule injected into every round: per-client
  /// dropout, straggler deadlines, corrupted (NaN) and size-mismatched
  /// uploads, all keyed by the plan's seed so faulty runs replay
  /// bit-for-bit. The default (empty) plan injects nothing and keeps the
  /// round engine on its fault-free path.
  FailurePlan failure;
  /// Upload re-attempts granted to each client per round before its
  /// update is quarantined for that round (straggler/corrupt/mismatch
  /// faults only — a dropped-out client is offline and cannot retry).
  int retry_budget = 1;
  /// Thread budget of the per-client local-training fan-out, the calling
  /// thread included (0 = hardware concurrency, 1 = serial); it also caps
  /// the sharded kernels inside each client's steps, which threads that
  /// ran out of clients join. Determinism contract (DESIGN.md
  /// §9): each client trains an independent copy of the global net with
  /// its own optimizer/RNG state, and updates are committed in client-
  /// index order, so the aggregated parameters — and the per-round loss
  /// stats — are bit-identical for every value of this knob.
  int num_threads = 0;
  bool verbose = false;
  /// Invoked once per completed round with that round's telemetry (wall
  /// and process-CPU seconds, loss, participation churn), before the
  /// round is appended to `stats`. Used by the CLI's `--metrics-out`
  /// JSONL snapshot writer to turn round health into a time series.
  /// Called from the orchestrating thread; may be empty.
  std::function<void(const telemetry::RoundTelemetry&)> round_observer;
  /// Invoked with the committed global model after every round: once with
  /// round = 0 and a default RoundTelemetry before the first round (the
  /// freshly initialized model — the baseline a streaming delta chain
  /// diffs against), then with round = r (1-based) after round r's
  /// parameters are committed (including fully-degraded rounds, where the
  /// model is unchanged). The reference is only valid for the duration of
  /// the call. Called from the orchestrating thread; may be empty. Used
  /// by the streaming delta-log emitter (src/ctfl/stream/).
  std::function<void(int round, const LogicalNet& global,
                     const telemetry::RoundTelemetry& rt)>
      model_observer;
};

/// Per-run statistics of one RunFedAvg invocation, feeding
/// telemetry::RunTelemetry.
struct FedAvgStats {
  std::vector<telemetry::RoundTelemetry> rounds;
  /// Total grafted steps that made it into the global model (accepted
  /// uploads only) across all clients and rounds.
  int64_t grafting_steps = 0;
  /// Participation churn totals across all rounds: clients that ended a
  /// round without an accepted upload (dropout or exhausted retries),
  /// upload re-attempts consumed, and rounds that aggregated fewer
  /// clients than the fault-free schedule would have.
  int64_t clients_dropped = 0;
  int64_t retries = 0;
  int rounds_degraded = 0;
};

/// Runs FedAvg rounds on an existing global model: every round each
/// non-empty client trains a copy locally, and the server averages the
/// resulting parameters weighted by client data volume — the observation
/// CTFL's micro allocation scheme leans on (paper §III-C). When `stats`
/// is non-null it is filled with per-round timings, loss, and
/// participation telemetry.
///
/// Fault tolerance (DESIGN.md §11): uploads are validated server-side and
/// bad ones (wrong size, non-finite coordinates, missed deadline) are
/// retried up to `config.retry_budget` times, then quarantined — the
/// round completes over the surviving cohort with re-weighted averaging
/// (and cohort-aware secure aggregation) instead of crashing or silently
/// mis-aggregating. A fully quarantined round leaves the model untouched.
/// Returns an error Status only for malformed configuration or internal
/// aggregation invariant violations; per-client faults never fail the
/// run.
Status RunFedAvg(LogicalNet& global, const std::vector<Dataset>& clients,
                 const FedAvgConfig& config, FedAvgStats* stats = nullptr);

/// Builds a fresh LogicalNet and federally trains it across `clients`.
Result<LogicalNet> TrainFederated(SchemaPtr schema,
                                  const LogicalNetConfig& net_config,
                                  const std::vector<Dataset>& clients,
                                  const FedAvgConfig& config,
                                  FedAvgStats* stats = nullptr);

/// Builds a fresh LogicalNet and centrally trains it on one dataset
/// (equivalent to FedAvg with a single full-participation client; used
/// where retraining speed matters, e.g. coalition utility evaluation).
/// When `report` is non-null the TrainGrafted report is copied out.
LogicalNet TrainCentral(SchemaPtr schema, const LogicalNetConfig& net_config,
                        const Dataset& data, const TrainConfig& config,
                        TrainReport* report = nullptr);

}  // namespace ctfl

#endif  // CTFL_FL_FEDAVG_H_
