#ifndef CTFL_TELEMETRY_RUN_TELEMETRY_H_
#define CTFL_TELEMETRY_RUN_TELEMETRY_H_

// Structured per-run telemetry attached to CtflReport: where one CTFL
// pass (train -> upload -> trace -> allocate) spent its time and what the
// rule / tracer machinery did. This is the data behind the paper's
// single-pass efficiency claim (§III, Fig. 5) — benches and the CLI print
// it, and BENCH_*.json regressions can be argued from it.

#include <cstdint>
#include <string>
#include <vector>

namespace ctfl {
namespace telemetry {

/// One FedAvg communication round (federated training path).
struct RoundTelemetry {
  int round = 0;
  double seconds = 0.0;
  /// Mean of the accepted clients' final local training losses.
  double mean_local_loss = 0.0;
  int clients_trained = 0;
  /// Participation churn under failure injection (DESIGN.md §11):
  /// clients that ended the round without an accepted upload, upload
  /// re-attempts consumed, and whether the round aggregated a smaller
  /// cohort than scheduled. All zero/false on the fault-free path.
  int clients_dropped = 0;
  int retries = 0;
  bool degraded = false;
  /// Process CPU time the round consumed across every thread
  /// (CLOCK_PROCESS_CPUTIME_ID delta; 0 when unsupported). At most
  /// seconds * worker-threads up to clock granularity.
  double cpu_seconds = 0.0;
};

/// One local/central training epoch.
struct EpochTelemetry {
  int epoch = 0;
  double seconds = 0.0;
  double loss = 0.0;
};

/// Everything a single RunCtfl invocation reports about itself.
struct RunTelemetry {
  // ---- Training phase ----------------------------------------------------
  /// Per-round timings (federated path; empty when training centrally).
  std::vector<RoundTelemetry> rounds;
  /// Per-epoch stats of the central path (empty when federated).
  std::vector<EpochTelemetry> epochs;
  /// Total grafted gradient steps across all local/central training.
  int64_t grafting_steps = 0;
  double train_seconds = 0.0;
  double train_accuracy = 0.0;
  /// Fault-tolerance totals across all rounds (federated path; zero when
  /// training centrally or fault-free — DESIGN.md §11).
  int64_t clients_dropped = 0;
  int64_t retries = 0;
  int rounds_degraded = 0;

  // ---- Upload phase -------------------------------------------------------
  /// Participants' rule-activation uploads (ComputeUploadActivations), the
  /// same forward pass that yields train_accuracy.
  double upload_seconds = 0.0;

  // ---- Rule extraction stats (model -> traceable rule set) --------------
  int rules_total = 0;
  /// Rules with vote weight >= the tracer's min_rule_weight.
  int rules_kept = 0;
  int rules_pruned = 0;

  // ---- Tracer pass stats -------------------------------------------------
  /// Distinct (class, supporting-rule-set) tracing keys after dedup.
  int64_t trace_keys = 0;
  /// Candidate (key, training-record) pairs examined against tau_w.
  int64_t tau_w_checks = 0;
  /// Pairs that met the tau_w threshold — total related-record hits.
  int64_t related_records = 0;
  int64_t uncovered_tests = 0;
  /// Blocked-kernel work accounting: candidates the kernel actually
  /// touched (<= tau_w_checks) and 64-record blocks decided before their
  /// last rule.
  int64_t records_scanned = 0;
  int64_t blocks_pruned = 0;
  /// Lanes the kernel's integer bounds left to the exact comparison.
  int64_t exact_fallbacks = 0;
  /// Tracer construction over the uploads plus the tracing pass.
  double trace_seconds = 0.0;

  // ---- Allocation phase --------------------------------------------------
  double allocate_seconds = 0.0;

  // ---- Profiling-grade breakdown (DESIGN.md §12) -------------------------
  /// Process CPU time per phase across all threads
  /// (CLOCK_PROCESS_CPUTIME_ID deltas; 0 when the platform lacks the
  /// clock). Each is bounded by the phase's wall time times the number of
  /// running threads; cpu ~= wall on a single core means the phase is
  /// compute-bound, cpu << wall means it was blocked or preempted.
  double train_cpu_seconds = 0.0;
  double upload_cpu_seconds = 0.0;
  double trace_cpu_seconds = 0.0;
  double allocate_cpu_seconds = 0.0;
  /// getrusage(RUSAGE_SELF) view of the run: peak resident set (process
  /// high-water mark, not a delta) and context switches consumed between
  /// RunCtfl entry and exit.
  int64_t max_rss_kb = 0;
  int64_t voluntary_ctx_switches = 0;
  int64_t involuntary_ctx_switches = 0;

  double total_seconds() const {
    return train_seconds + upload_seconds + trace_seconds + allocate_seconds;
  }
  double total_cpu_seconds() const {
    return train_cpu_seconds + upload_cpu_seconds + trace_cpu_seconds +
           allocate_cpu_seconds;
  }

  /// Multi-line human-readable summary (phase table + per-round lines).
  std::string Summary() const;
};

}  // namespace telemetry
}  // namespace ctfl

#endif  // CTFL_TELEMETRY_RUN_TELEMETRY_H_
