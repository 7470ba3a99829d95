#include "ctfl/telemetry/run_report.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "ctfl/util/json.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace telemetry {
namespace {

/// JSON has no Inf/NaN; a non-finite value (never produced by healthy
/// runs) degrades to null and parses back as 0.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

std::string Hex64(uint64_t v) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(v));
}

}  // namespace

std::string RunReportJson(const RunReport& report) {
  const RunTelemetry& t = report.telemetry;
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << report.schema_version << ",\n";
  out << "  \"run\": {\n";
  out << "    \"fingerprint\": \"" << Hex64(report.run_fingerprint)
      << "\",\n";
  out << "    \"config_digest\": \"" << Hex64(report.config_digest)
      << "\",\n";
  out << "    \"schema_fingerprint\": \"" << Hex64(report.schema_fingerprint)
      << "\",\n";
  out << "    \"failure_plan_fingerprint\": \""
      << Hex64(report.failure_plan_fingerprint) << "\",\n";
  out << "    \"build_type\": \"" << JsonEscape(report.build_type)
      << "\",\n";
  out << "    \"trace_isa\": \"" << JsonEscape(report.trace_isa) << "\",\n";
  out << "    \"federated\": " << (report.federated ? "true" : "false")
      << ",\n";
  out << "    \"num_participants\": " << report.num_participants << ",\n";
  out << "    \"train_records\": " << report.train_records << ",\n";
  out << "    \"test_records\": " << report.test_records << ",\n";
  out << "    \"test_accuracy\": " << Num(report.test_accuracy) << "\n";
  out << "  },\n";
  out << "  \"phases\": {\n";
  out << "    \"train\": {\"wall_seconds\": " << Num(t.train_seconds)
      << ", \"cpu_seconds\": " << Num(t.train_cpu_seconds) << "},\n";
  out << "    \"upload\": {\"wall_seconds\": " << Num(t.upload_seconds)
      << ", \"cpu_seconds\": " << Num(t.upload_cpu_seconds) << "},\n";
  out << "    \"trace\": {\"wall_seconds\": " << Num(t.trace_seconds)
      << ", \"cpu_seconds\": " << Num(t.trace_cpu_seconds) << "},\n";
  out << "    \"allocate\": {\"wall_seconds\": " << Num(t.allocate_seconds)
      << ", \"cpu_seconds\": " << Num(t.allocate_cpu_seconds) << "}\n";
  out << "  },\n";
  out << "  \"train\": {\n";
  out << "    \"grafting_steps\": " << t.grafting_steps << ",\n";
  out << "    \"train_accuracy\": " << Num(t.train_accuracy) << ",\n";
  out << "    \"clients_dropped\": " << t.clients_dropped << ",\n";
  out << "    \"retries\": " << t.retries << ",\n";
  out << "    \"rounds_degraded\": " << t.rounds_degraded << ",\n";
  out << "    \"rounds\": [";
  for (size_t i = 0; i < t.rounds.size(); ++i) {
    const RoundTelemetry& r = t.rounds[i];
    if (i > 0) out << ",";
    out << "\n      {\"round\": " << r.round
        << ", \"seconds\": " << Num(r.seconds)
        << ", \"cpu_seconds\": " << Num(r.cpu_seconds)
        << ", \"mean_local_loss\": " << Num(r.mean_local_loss)
        << ", \"clients_trained\": " << r.clients_trained
        << ", \"clients_dropped\": " << r.clients_dropped
        << ", \"retries\": " << r.retries
        << ", \"degraded\": " << (r.degraded ? "true" : "false") << "}";
  }
  out << (t.rounds.empty() ? "]" : "\n    ]") << ",\n";
  out << "    \"epochs\": [";
  for (size_t i = 0; i < t.epochs.size(); ++i) {
    const EpochTelemetry& e = t.epochs[i];
    if (i > 0) out << ",";
    out << "\n      {\"epoch\": " << e.epoch
        << ", \"seconds\": " << Num(e.seconds)
        << ", \"loss\": " << Num(e.loss) << "}";
  }
  out << (t.epochs.empty() ? "]" : "\n    ]") << "\n";
  out << "  },\n";
  out << "  \"rules\": {\"total\": " << t.rules_total
      << ", \"kept\": " << t.rules_kept << ", \"pruned\": " << t.rules_pruned
      << "},\n";
  out << "  \"trace\": {\n";
  out << "    \"keys\": " << t.trace_keys << ",\n";
  out << "    \"tau_w_checks\": " << t.tau_w_checks << ",\n";
  out << "    \"related_records\": " << t.related_records << ",\n";
  out << "    \"uncovered_tests\": " << t.uncovered_tests << ",\n";
  out << "    \"records_scanned\": " << t.records_scanned << ",\n";
  out << "    \"blocks_pruned\": " << t.blocks_pruned << ",\n";
  out << "    \"exact_fallbacks\": " << t.exact_fallbacks << "\n";
  out << "  },\n";
  out << "  \"resources\": {\n";
  out << "    \"max_rss_kb\": " << t.max_rss_kb << ",\n";
  out << "    \"voluntary_ctx_switches\": " << t.voluntary_ctx_switches
      << ",\n";
  out << "    \"involuntary_ctx_switches\": " << t.involuntary_ctx_switches
      << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

Status WriteRunReport(const RunReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out << RunReportJson(report);
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace telemetry
}  // namespace ctfl
