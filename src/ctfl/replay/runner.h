#ifndef CTFL_REPLAY_RUNNER_H_
#define CTFL_REPLAY_RUNNER_H_

// Replay side of the record/replay harness (DESIGN.md §14). Four layers:
//
//   RunSpecFlags /    the one flag surface and spec builder of every tool
//   BuildRunInputs    that runs a spec (`ctfl score`/`snapshot`,
//                     `ctfl_replay record`): flags -> RunSpec -> inputs +
//                     CtflConfig
//   ExecuteRunSpec    re-runs a recorded RunSpec (optionally with
//                     per-cell overrides) and recomputes its RunOutcome —
//                     the bit-identity surface a replay is checked
//                     against
//   ReplayEvents*     re-issues a recorded query stream against a fresh
//                     QueryService (batch), a fresh service per event
//                     (one-shot), or an in-process socket server
//                     (served), digest-checking every digest-stable
//                     response
//   GenerateMatrix /  expands one replay file into the differential
//   RunMatrix         regression cells (trace ISA, threads 1/2/8,
//                     faulty-vs-clean, batch vs one-shot vs served) and
//                     executes them
//
// Every run cell must reproduce the recorded outcome bit-for-bit —
// identical score/render digests AND an equal run fingerprint — except
// the `clean` cell, which drops the fault plan and must *diverge* in
// fingerprint (the fingerprint is doing its job).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctfl/core/pipeline.h"
#include "ctfl/replay/replay_file.h"
#include "ctfl/serve/service.h"
#include "ctfl/util/flags.h"

namespace ctfl {
namespace replay {

/// Canonical full-precision score table: one "%-11s %8zu   %.17g   %.17g"
/// row per participant. %.17g round-trips doubles exactly, so two tables
/// are byte-identical iff the score vectors are bit-identical — this is
/// the rendered surface pinned by RunOutcome::render_digest.
std::string RenderScoreTable(const Federation& federation,
                             const std::vector<double>& micro,
                             const std::vector<double>& macro);

/// Computes the outcome of a finished run (fingerprints via
/// MakeRunReport, score + render digests).
RunOutcome MakeRunOutcome(const CtflReport& report, const CtflConfig& config,
                          const Federation& federation, const Dataset& test);

/// Flag table of a tool that runs a RunSpec: every flag that can change a
/// score — the data flags of `source` (--train/--test, or --train-n,
/// --train-seed, --test-n, --test-seed), the partition flags and the
/// semantic CtflConfig flags — at their defaults, merged with the tool's
/// own `tool_flags`, which win (`ctfl score` defaults to 4 participants,
/// `ctfl_replay record` keeps 3).
std::map<std::string, std::string> RunSpecFlags(
    DataSource source, std::map<std::string, std::string> tool_flags);

/// Reads the flags RunSpecFlags(source, ...) declared into a RunSpec,
/// pinning CSV inputs by content digest. Fails when a CSV path is missing
/// or --retry-budget is negative; BuildRunInputs validates the rest.
Result<RunSpec> ParseRunSpecFlags(const FlagParser& flags, DataSource source);

/// Per-cell knob overrides applied on top of a recorded spec. Only the
/// score-neutral knobs (plus the fault plan, whose divergence is asserted,
/// not assumed) are overridable — everything semantic replays as recorded.
struct RunOverrides {
  /// Master thread knob; kKeep leaves the recorded value.
  static constexpr int64_t kKeep = INT64_MIN;
  int64_t num_threads = kKeep;
  /// TraceIsa value, or -1 to keep the process-wide dispatch. Replay
  /// files never record an ISA (it is execution context, not semantics);
  /// the isa cells force a tier and assert the outcome is unchanged.
  int trace_isa = -1;
  /// Trace-kernel shard threads, or kKeep for the default (serial).
  int64_t trace_threads = kKeep;
  /// Drop the recorded failure plan (the faulty-vs-clean cell).
  bool clean = false;
  /// When non-empty, persist a contribution bundle (for query cells).
  std::string bundle_out;
  /// When non-empty, attach a streaming delta-log emitter to the run
  /// (federated specs only; the streamed cell folds this log and asserts
  /// score bit-identity against the one-shot outcome).
  std::string delta_log_out;
};

/// The inputs and semantic config a RunSpec describes.
struct RunInputs {
  CtflConfig config;
  Federation federation;
  Dataset test;
};

/// Validates `spec` (participants and width in [1, INT_MAX], a fault plan
/// or masking only with federated training), rebuilds its inputs
/// (regenerated benchmarks or digest-checked CSVs), partitions them with
/// the recorded PRNG stream and maps the spec plus `overrides` onto a
/// CtflConfig. `ctfl score` and ExecuteRunSpec both run what this returns;
/// callers add only observers.
Result<RunInputs> BuildRunInputs(const RunSpec& spec,
                                 const RunOverrides& overrides = {});

/// A re-executed run: the effective config, the reconstructed inputs, and
/// the recomputed outcome.
struct RunArtifacts : RunInputs {
  RunOutcome outcome;
  std::string score_table;
  size_t bundle_bytes = 0;
};

/// Builds the run (BuildRunInputs), runs the pipeline, and recomputes the
/// outcome.
Result<RunArtifacts> ExecuteRunSpec(const RunSpec& spec,
                                    const RunOverrides& overrides = {});

/// Bitwise outcome comparison. Returns OK when `got` reproduces `want`
/// (all four fingerprints, score digest, render digest, accuracy bits);
/// FailedPrecondition naming the first divergent field otherwise.
Status CompareOutcomes(const RunOutcome& want, const RunOutcome& got);

/// Outcome of replaying a recorded query stream.
struct EventReplayResult {
  size_t replayed = 0;        ///< events re-issued (SHUTDOWN skipped)
  size_t digest_checked = 0;  ///< digest-stable events compared
  size_t mismatches = 0;
  std::string detail;  ///< first mismatch, human-readable
  bool ok() const { return mismatches == 0; }
};

/// Replays the stream against one long-lived service (the streamed-batch
/// leg; LRU warm across events, like a resident server).
Result<EventReplayResult> ReplayEventsThroughService(
    const std::vector<QueryEvent>& events, serve::QueryService& service);

/// Replays each event against a freshly opened engine + service (the
/// one-shot CLI leg; nothing cached between events).
Result<EventReplayResult> ReplayEventsOneShot(
    const std::vector<QueryEvent>& events, const std::string& bundle_path);

/// Replays the stream through an in-process socket server + client over
/// `socket_path` (the served leg). Unimplemented off-POSIX.
Result<EventReplayResult> ReplayEventsServed(
    const std::vector<QueryEvent>& events, const std::string& bundle_path,
    const std::string& socket_path);

/// One differential regression cell derived from a replay file.
struct MatrixCell {
  enum class Kind {
    kRun,          ///< re-run the spec, require bitwise outcome match
    kRunDiverge,   ///< re-run, require the run fingerprint to differ
    kRunStreamed,  ///< re-run emitting a delta log, fold it, require the
                   ///< streamed scores to bit-match the one-shot outcome
    kQueryBatch,   ///< replay events against one warm service
    kQueryOneShot, ///< replay events, fresh service per event
    kQueryServed,  ///< replay events through a socket server
  };
  std::string name;
  std::string description;
  Kind kind = Kind::kRun;
  RunOverrides overrides;
};

/// Expands `file` into its differential matrix: base replay (when a spec
/// is present); forced-scalar trace ISA (plus the best available tier when
/// it differs); threads 1/2/8; clean (when the
/// recorded run had a fault plan); streamed delta-log fold (federated
/// specs); query batch/one-shot (when events are present) and served
/// (POSIX). Deterministic order.
std::vector<MatrixCell> GenerateMatrix(const ReplayFile& file);

struct MatrixOptions {
  /// Directory for scratch bundles/sockets (must exist).
  std::string scratch_dir = ".";
  /// When non-empty, run only the cell with this name.
  std::string only_cell;
  /// Skip kQueryServed cells (no-socket environments, TSan runs that
  /// should stay in-process, ...).
  bool include_served = true;
};

struct CellResult {
  std::string name;
  bool pass = false;
  std::string detail;  ///< "scores bit-identical, fingerprint 0x..." or
                       ///< the first divergence
};

/// Executes the matrix. The base spec runs once per distinct override set;
/// query cells reuse one bundle emitted by the base run. A cell that
/// cannot run (e.g. served without socket support) reports pass=false
/// with the reason unless it was excluded via `options`.
Result<std::vector<CellResult>> RunMatrix(const ReplayFile& file,
                                          const MatrixOptions& options = {});

}  // namespace replay
}  // namespace ctfl

#endif  // CTFL_REPLAY_RUNNER_H_
