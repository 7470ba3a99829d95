#ifndef CTFL_TELEMETRY_RUN_REPORT_H_
#define CTFL_TELEMETRY_RUN_REPORT_H_

// Structured, machine-readable run report (DESIGN.md §12): one JSON
// document per CTFL run carrying the run's identity (fingerprints), its
// per-phase wall/CPU breakdown, kernel counters, and resource footprint.
// Benches and the perf gate consume these instead of scraping stdout.
//
// The writer emits doubles with %.17g and fingerprints as hex strings, so
// a written report parses back *bit-exactly* (pinned by
// tests/run_report_test.cc).

#include <cstdint>
#include <string>

#include "ctfl/telemetry/run_telemetry.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace telemetry {

/// Everything a RunReport says about one RunCtfl invocation.
struct RunReport {
  /// Format version of the JSON document; bump on breaking changes.
  int schema_version = 1;

  // ---- Run identity ------------------------------------------------------
  /// Fingerprint of the whole run setup: config digest mixed with the
  /// data-shape fingerprints below. Two runs with equal fingerprints are
  /// expected to reproduce each other's scores bit-for-bit.
  uint64_t run_fingerprint = 0;
  /// Digest over the semantic CtflConfig knobs (net shape, seeds,
  /// rounds/epochs, tau_w, ...). Thread counts and the trace-kernel
  /// selector are excluded: they never change results (DESIGN.md §9/§10).
  uint64_t config_digest = 0;
  /// SchemaFingerprint of the federation's feature schema.
  uint64_t schema_fingerprint = 0;
  /// FailurePlan::Fingerprint() of the fault schedule (0 = fault-free).
  uint64_t failure_plan_fingerprint = 0;
  /// "release" or "debug" (BuildTypeName()) — perf numbers from debug
  /// builds must never enter a trajectory.
  std::string build_type;
  /// SIMD tier the trace kernel ran with ("scalar", "avx2", ...). Pure
  /// execution context, like build_type: not part of the run fingerprint
  /// (results are bit-identical across tiers), but recorded so perf
  /// numbers are only ever compared like-for-like.
  std::string trace_isa;

  // ---- Run shape + outcome ----------------------------------------------
  bool federated = true;
  int num_participants = 0;
  int64_t train_records = 0;
  int64_t test_records = 0;
  double test_accuracy = 0.0;

  /// Full phase/round/kernel telemetry, including the per-phase CPU
  /// breakdown and rusage footprint.
  RunTelemetry telemetry;
};

/// Serializes `report` as a self-contained JSON document.
std::string RunReportJson(const RunReport& report);

/// Writes RunReportJson() to `path`.
Status WriteRunReport(const RunReport& report, const std::string& path);

}  // namespace telemetry
}  // namespace ctfl

#endif  // CTFL_TELEMETRY_RUN_REPORT_H_
