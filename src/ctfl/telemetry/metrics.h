#ifndef CTFL_TELEMETRY_METRICS_H_
#define CTFL_TELEMETRY_METRICS_H_

// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms. Registration (name lookup) takes a mutex once; after that
// every update is a single relaxed atomic on the instrument itself, so the
// fast path is lock-free and safe to hammer from ThreadPool workers.
//
// Naming convention (see DESIGN.md §"Observability"): dot-separated,
// lower-case, subsystem-first — `ctfl.train.steps`, `ctfl.trace.related_records`,
// `ctfl.valuation.coalitions`, ...

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ctfl {
namespace telemetry {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// v <= bounds[i] (first matching bound); values above the last bound —
/// and non-finite values — land in the implicit overflow bucket.
/// Observe() is lock-free: a branchless binary search plus two relaxed
/// fetch_adds and one CAS loop for the running sum.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending (checked).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const int64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<int64_t> BucketCounts() const;

  /// Upper bound of the bucket containing the p-quantile (p clamped to
  /// [0,1]). Returns +inf when the quantile falls in the overflow bucket,
  /// 0 when the histogram is empty. Safe against concurrent Observe()
  /// racing the bucket scan: the target rank is derived from the same
  /// bucket snapshot that is scanned, never from the live count.
  double ApproxQuantile(double p) const;

  void Reset();

  /// Default bounds for microsecond-scale latency metrics: 1us..~1000s in
  /// roughly 1-2-5 decades.
  static std::vector<double> LatencyMicrosBounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns all instruments; instruments live for the process lifetime, so a
/// reference obtained once may be cached (e.g. in a function-local static)
/// and updated without ever touching the registry again.
class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create; thread-safe. The returned reference is stable.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `bounds` is only used on first registration; later callers get the
  /// existing histogram regardless of the bounds they pass.
  Histogram& GetHistogram(
      const std::string& name,
      std::vector<double> bounds = Histogram::LatencyMicrosBounds());

  /// Point-in-time copy of every instrument's value, for export.
  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    struct HistogramData {
      std::vector<double> bounds;
      std::vector<int64_t> bucket_counts;
      int64_t count = 0;
      double sum = 0.0;
      double p50 = 0.0;
      double p90 = 0.0;
      double p99 = 0.0;
    };
    std::map<std::string, HistogramData> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Human-readable dump of all instruments (one line each).
  std::string SummaryTable() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace telemetry
}  // namespace ctfl

#endif  // CTFL_TELEMETRY_METRICS_H_
