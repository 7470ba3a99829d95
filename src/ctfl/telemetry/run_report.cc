#include "ctfl/telemetry/run_report.h"

#include <cmath>
#include <cstdlib>
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

uint64_t ParseHex64(const std::string& s) {
  return static_cast<uint64_t>(std::strtoull(s.c_str(), nullptr, 16));
}

double GetNum(const JsonValue& obj, const char* key, double fallback = 0.0) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

int64_t GetInt(const JsonValue& obj, const char* key, int64_t fallback = 0) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->AsInt64() : fallback;
}

bool GetBool(const JsonValue& obj, const char* key, bool fallback = false) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kBool) ? v->boolean
                                                             : fallback;
}

std::string GetStr(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::string();
}

uint64_t GetHex(const JsonValue& obj, const char* key) {
  return ParseHex64(GetStr(obj, key));
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

Result<RunReport> ParseRunReportJson(const std::string& json) {
  CTFL_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("run report: top level is not an object");
  }
  RunReport report;
  report.schema_version =
      static_cast<int>(GetInt(root, "schema_version", 1));

  if (const JsonValue* run = root.Find("run"); run != nullptr) {
    report.run_fingerprint = GetHex(*run, "fingerprint");
    report.config_digest = GetHex(*run, "config_digest");
    report.schema_fingerprint = GetHex(*run, "schema_fingerprint");
    report.failure_plan_fingerprint =
        GetHex(*run, "failure_plan_fingerprint");
    report.build_type = GetStr(*run, "build_type");
    report.trace_isa = GetStr(*run, "trace_isa");
    report.federated = GetBool(*run, "federated", true);
    report.num_participants =
        static_cast<int>(GetInt(*run, "num_participants"));
    report.train_records = GetInt(*run, "train_records");
    report.test_records = GetInt(*run, "test_records");
    report.test_accuracy = GetNum(*run, "test_accuracy");
  }

  RunTelemetry& t = report.telemetry;
  if (const JsonValue* phases = root.Find("phases"); phases != nullptr) {
    if (const JsonValue* p = phases->Find("train"); p != nullptr) {
      t.train_seconds = GetNum(*p, "wall_seconds");
      t.train_cpu_seconds = GetNum(*p, "cpu_seconds");
    }
    // Reports written before the upload phase existed lack it; their
    // upload time stays 0 (it was counted in no phase).
    if (const JsonValue* p = phases->Find("upload"); p != nullptr) {
      t.upload_seconds = GetNum(*p, "wall_seconds");
      t.upload_cpu_seconds = GetNum(*p, "cpu_seconds");
    }
    if (const JsonValue* p = phases->Find("trace"); p != nullptr) {
      t.trace_seconds = GetNum(*p, "wall_seconds");
      t.trace_cpu_seconds = GetNum(*p, "cpu_seconds");
    }
    if (const JsonValue* p = phases->Find("allocate"); p != nullptr) {
      t.allocate_seconds = GetNum(*p, "wall_seconds");
      t.allocate_cpu_seconds = GetNum(*p, "cpu_seconds");
    }
  }
  if (const JsonValue* train = root.Find("train"); train != nullptr) {
    t.grafting_steps = GetInt(*train, "grafting_steps");
    t.train_accuracy = GetNum(*train, "train_accuracy");
    t.clients_dropped = GetInt(*train, "clients_dropped");
    t.retries = GetInt(*train, "retries");
    t.rounds_degraded =
        static_cast<int>(GetInt(*train, "rounds_degraded"));
    if (const JsonValue* rounds = train->Find("rounds");
        rounds != nullptr && rounds->is_array()) {
      for (const JsonValue& r : rounds->array) {
        RoundTelemetry rt;
        rt.round = static_cast<int>(GetInt(r, "round"));
        rt.seconds = GetNum(r, "seconds");
        rt.cpu_seconds = GetNum(r, "cpu_seconds");
        rt.mean_local_loss = GetNum(r, "mean_local_loss");
        rt.clients_trained = static_cast<int>(GetInt(r, "clients_trained"));
        rt.clients_dropped = static_cast<int>(GetInt(r, "clients_dropped"));
        rt.retries = static_cast<int>(GetInt(r, "retries"));
        rt.degraded = GetBool(r, "degraded");
        t.rounds.push_back(rt);
      }
    }
    if (const JsonValue* epochs = train->Find("epochs");
        epochs != nullptr && epochs->is_array()) {
      for (const JsonValue& e : epochs->array) {
        EpochTelemetry et;
        et.epoch = static_cast<int>(GetInt(e, "epoch"));
        et.seconds = GetNum(e, "seconds");
        et.loss = GetNum(e, "loss");
        t.epochs.push_back(et);
      }
    }
  }
  if (const JsonValue* rules = root.Find("rules"); rules != nullptr) {
    t.rules_total = static_cast<int>(GetInt(*rules, "total"));
    t.rules_kept = static_cast<int>(GetInt(*rules, "kept"));
    t.rules_pruned = static_cast<int>(GetInt(*rules, "pruned"));
  }
  if (const JsonValue* trace = root.Find("trace"); trace != nullptr) {
    t.trace_keys = GetInt(*trace, "keys");
    t.tau_w_checks = GetInt(*trace, "tau_w_checks");
    t.related_records = GetInt(*trace, "related_records");
    t.uncovered_tests = GetInt(*trace, "uncovered_tests");
    t.records_scanned = GetInt(*trace, "records_scanned");
    t.blocks_pruned = GetInt(*trace, "blocks_pruned");
    t.exact_fallbacks = GetInt(*trace, "exact_fallbacks");
  }
  if (const JsonValue* res = root.Find("resources"); res != nullptr) {
    t.max_rss_kb = GetInt(*res, "max_rss_kb");
    t.voluntary_ctx_switches = GetInt(*res, "voluntary_ctx_switches");
    t.involuntary_ctx_switches = GetInt(*res, "involuntary_ctx_switches");
  }
  return report;
}

Result<RunReport> ReadRunReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseRunReportJson(buffer.str());
}

}  // namespace telemetry
}  // namespace ctfl
