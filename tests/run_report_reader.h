#ifndef CTFL_TESTS_RUN_REPORT_READER_H_
#define CTFL_TESTS_RUN_REPORT_READER_H_

// Reads a RunReport back from the JSON RunReportJson() writes. The writer
// emits doubles with %.17g and fingerprints as hex strings, and this reader
// reverses both losslessly, so a written report parses back bit-exactly
// (run_report_test).

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "ctfl/telemetry/run_report.h"
#include "json_reader.h"

namespace ctfl {
namespace telemetry {
namespace report_reader {

inline uint64_t ParseHex64(const std::string& s) {
  return static_cast<uint64_t>(std::strtoull(s.c_str(), nullptr, 16));
}

inline double GetNum(const JsonValue& obj, const char* key,
                     double fallback = 0.0) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

inline int64_t GetInt(const JsonValue& obj, const char* key,
                      int64_t fallback = 0) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_number()) ? v->AsInt64() : fallback;
}

inline bool GetBool(const JsonValue& obj, const char* key,
                    bool fallback = false) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kBool) ? v->boolean
                                                             : fallback;
}

inline std::string GetStr(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return (v != nullptr && v->is_string()) ? v->string : std::string();
}

inline uint64_t GetHex(const JsonValue& obj, const char* key) {
  return ParseHex64(GetStr(obj, key));
}

}  // namespace report_reader

/// Parses a document produced by RunReportJson(); unknown fields are
/// ignored, missing fields keep their defaults (forward compatibility).
inline Result<RunReport> ParseRunReportJson(const std::string& json) {
  using namespace report_reader;
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

/// Reads `path` and parses it.
inline Result<RunReport> ReadRunReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseRunReportJson(buffer.str());
}

}  // namespace telemetry
}  // namespace ctfl

#endif  // CTFL_TESTS_RUN_REPORT_READER_H_
