#ifndef CTFL_CORE_PIPELINE_H_
#define CTFL_CORE_PIPELINE_H_

#include <memory>
#include <string>

#include "ctfl/core/allocation.h"
#include "ctfl/core/loss_tracing.h"
#include "ctfl/core/tracer.h"
#include "ctfl/fl/fedavg.h"
#include "ctfl/telemetry/run_report.h"
#include "ctfl/telemetry/run_telemetry.h"
#include "ctfl/valuation/scheme.h"

namespace ctfl {

/// Everything CTFL needs end-to-end: how to train the single global model
/// and how to trace it.
struct CtflConfig {
  LogicalNetConfig net;
  /// True: train the global model with FedAvg across participants (the
  /// paper's setting). False: central training on merged data (useful in
  /// tests and fast ablations; yields the same kind of rule model).
  bool federated = true;
  FedAvgConfig fedavg;
  TrainConfig central;
  TracerConfig tracer;
  /// Minimum related records for macro credit (Eq. 6).
  int macro_delta = 1;
  /// Master thread knob. When >= 0 it overrides every per-component
  /// setting — fedavg.num_threads (client fan-out), fedavg.local /
  /// central num_threads (matrix kernels), tracer.num_threads — and the
  /// process-wide matrix parallelism, so one flag steers the whole run
  /// (0 = hardware concurrency, 1 = fully serial). -1 leaves the
  /// per-component knobs untouched. Scores and parameters are
  /// bit-identical for every value (DESIGN.md §9).
  int num_threads = -1;
  /// When non-empty, RunCtfl persists a contribution bundle (store/) at
  /// this path after allocation: model + rules + activation uploads +
  /// test forwards, so later contribution / interpretability queries need
  /// no retraining and no retracing. Failures are recorded in
  /// CtflReport::bundle_status, never fatal to the run.
  std::string bundle_out;
};

/// Output of one CTFL run: the trained global model, the tracing pass, and
/// both allocation schemes — all from a single model training + inference.
struct CtflReport {
  LogicalNet model;
  TraceResult trace;
  std::vector<double> micro_scores;
  std::vector<double> macro_scores;
  double train_seconds = 0.0;
  double trace_seconds = 0.0;
  double test_accuracy = 0.0;
  /// Outcome of the optional bundle emit (OK when bundle_out was empty).
  Status bundle_status;
  /// Bytes written to CtflConfig::bundle_out (0 when not emitted).
  size_t bundle_bytes = 0;
  /// Per-phase timings + rule/tracer stats of this run (per-round FedAvg
  /// timings, per-epoch losses, grafting-step counts, ...).
  telemetry::RunTelemetry telemetry;

  explicit CtflReport(LogicalNet model_in) : model(std::move(model_in)) {}
};

/// Runs the full CTFL pipeline (paper Fig. 1, steps 1-3): train one global
/// rule-based model, trace the test gain per participant, allocate micro
/// and macro credits. A malformed configuration (empty federation, invalid
/// FedAvg knobs such as a negative retry budget) propagates the training
/// Status instead of aborting the process; per-client faults never fail
/// the run — they degrade rounds (DESIGN.md §8).
Result<CtflReport> RunCtfl(const Federation& federation, const Dataset& test,
                           const CtflConfig& config);

/// Digest over the semantic CtflConfig knobs — everything that can change
/// the run's scores (net shape, seeds, rounds/epochs, tau_w, privacy,
/// ...). Thread-count knobs, the trace ISA, verbosity, and output paths
/// are excluded: they never change results (DESIGN.md
/// §9/§10). The failure plan is also excluded — it is fingerprinted
/// separately so a report can name the fault schedule independently of
/// the configuration.
uint64_t CtflConfigDigest(const CtflConfig& config);

/// Assembles the structured run report (DESIGN.md §12) for a finished
/// RunCtfl invocation: run identity (config digest, schema and
/// failure-plan fingerprints mixed into one run fingerprint), data shape,
/// build type, and the full RunTelemetry carried by `report`.
telemetry::RunReport MakeRunReport(const CtflReport& report,
                                   const CtflConfig& config,
                                   const Federation& federation,
                                   const Dataset& test);

/// Adapters exposing CTFL through the ContributionScheme interface so
/// benches iterate one scheme list. The CoalitionUtility passed to
/// Compute() is ignored beyond participant count — CTFL never retrains
/// coalitions; it reads the federation and test set held here.
class CtflScheme : public ContributionScheme {
 public:
  enum class Variant { kMicro, kMacro };

  /// `federation` and `test` must outlive the scheme.
  CtflScheme(const Federation* federation, const Dataset* test,
             CtflConfig config, Variant variant);

  std::string name() const override {
    return variant_ == Variant::kMicro ? "CTFL-micro" : "CTFL-macro";
  }
  Result<ContributionResult> Compute(CoalitionUtility& utility) override;

  /// The full report of the last Compute() call (shared by both variants
  /// when reuse is enabled via SharedReport).
  const CtflReport* last_report() const { return report_.get(); }
  /// Shared handle to the same report, for callers that outlive the
  /// scheme (e.g. bench harnesses consuming RunTelemetry).
  std::shared_ptr<const CtflReport> shared_report() const { return report_; }

 private:
  const Federation* federation_;
  const Dataset* test_;
  CtflConfig config_;
  Variant variant_;
  std::shared_ptr<CtflReport> report_;
};

}  // namespace ctfl

#endif  // CTFL_CORE_PIPELINE_H_
