#ifndef CTFL_PERFBENCH_HARNESS_H_
#define CTFL_PERFBENCH_HARNESS_H_

// Helpers of the end-to-end benchmark that carry no workload logic:
// order statistics, the metric-name rule, the correctness comparators,
// the span recorder of the traced run, and host probes (steal, CPU, RSS).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ctfl/serve/protocol.h"

namespace perfbench {

// ---- Order statistics ----------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (rank ceil(p/100 * n), 1-based). p in (0, 100];
/// returns 0 for an empty sample.
double NearestRankPercentile(std::vector<double> values, double p);

/// Median of repetitions (mean of the two middle values for even counts);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// True when `name` is a legal metric name: 1-64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

// ---- Correctness comparators ---------------------------------------------

/// Bit-for-bit equality of two score vectors. On mismatch returns false
/// and describes the first differing entry in `*why`.
bool ScoresBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, std::string* why);

/// Group rationality (paper §III-D): the micro scores sum to the matched
/// accuracy within `tolerance`.
bool SumMatches(const std::vector<double>& micro, double matched_accuracy,
                double tolerance);

/// Digest of a response's wire encoding with the request id zeroed, so a
/// served answer and the in-process engine's answer to the same request
/// compare equal exactly when every encoded field matches.
uint64_t ResponseDigest(ctfl::serve::Response response);

// ---- Operation ledger ----------------------------------------------------

/// Counts operations attempted and failed. A failed correctness check is a
/// failed operation; its description goes to stderr.
class Ledger {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Records a failure unless `ok`; returns `ok`.
  bool Check(bool ok, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- Spans of the traced run ---------------------------------------------

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;  ///< relative to the recorder's epoch
  int64_t end_ns = 0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
};

/// In-memory span recorder: Begin/End nest on one thread (the benchmark's
/// orchestrating thread); spans are written out when the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id);

  int Begin(const std::string& name);
  void End(int id);
  /// Adds a finished span under the innermost open span (used for FedAvg
  /// rounds, whose boundaries come from model_observer timestamps).
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Sum of the durations of every span named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Durations of every span named `name`, in seconds, in record order.
  std::vector<double> Durations(const std::string& name) const;
  /// Per span name: calls, total and self seconds. Self time is a span's
  /// duration minus the part of it its direct children cover.
  struct SelfRow {
    int64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, SelfRow> SelfTimeTable() const;

  /// Chrome trace-event JSON (complete "X" events, microseconds), which
  /// Perfetto and chrome://tracing open. `context` lands in "otherData".
  std::string ToChromeTrace(
      const std::map<std::string, std::string>& context) const;

 private:
  int64_t Now() const;

  uint64_t run_id_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

// ---- Host probes -----------------------------------------------------------

/// Aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
  bool valid = false;
};
CpuTicks ReadCpuTicks();
/// Share of host CPU time stolen by the hypervisor between two probes
/// (column 8 of the "cpu" line); -1 when /proc/stat is unavailable.
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// Process user + system CPU seconds (getrusage, all threads).
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

double SecondsSince(Clock::time_point start);

// ---- Output ----------------------------------------------------------------

/// Ordered metric set printed as the result's "metrics" object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}, values with 17 significant
  /// digits.
  std::string ToJson() const;
  /// One "metric <name> = <value> <unit>" line per metric.
  std::string ToText() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The result line the benchmark prints last.
std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics);

/// JSON string literal with escapes.
std::string JsonString(std::string_view s);
/// Shortest round-trip decimal of `v` (17 significant digits).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // CTFL_PERFBENCH_HARNESS_H_
