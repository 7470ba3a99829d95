#include "ctfl/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace telemetry {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  CTFL_CHECK(!bounds_.empty()) << "histogram needs at least one bound";
  for (size_t i = 1; i < bounds_.size(); ++i) {
    CTFL_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram bounds must be strictly ascending";
  }
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  size_t bucket = bounds_.size();  // overflow (also catches NaN/inf)
  if (std::isfinite(v)) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    bucket = static_cast<size_t>(it - bounds_.begin());
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    // Relaxed CAS loop; contention is rare (histograms record span ends,
    // not per-record work).
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + v,
                                       std::memory_order_relaxed)) {
    }
  }
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::ApproxQuantile(double p) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Integer rank in [1, total]: p=0 resolves to the first observation's
  // bucket (not blindly bounds[0]) and no float accumulation can skip a
  // bucket.
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p * static_cast<double>(total))));
  int64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= target) {
      return i < bounds_.size()
                 ? bounds_[i]
                 : std::numeric_limits<double>::infinity();
    }
  }
  return std::numeric_limits<double>::infinity();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::LatencyMicrosBounds() {
  // 1-2-5 decades from 1us to 1e9us (~17 minutes), 28 buckets + overflow.
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e9; decade *= 10.0) {
    bounds.push_back(decade);
    if (decade < 1e9) {
      bounds.push_back(decade * 2.0);
      bounds.push_back(decade * 5.0);
    }
  }
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    Snapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.bucket_counts = histogram->BucketCounts();
    data.count = histogram->count();
    data.sum = histogram->sum();
    data.p50 = histogram->ApproxQuantile(0.5);
    data.p90 = histogram->ApproxQuantile(0.9);
    data.p99 = histogram->ApproxQuantile(0.99);
    snapshot.histograms[name] = std::move(data);
  }
  return snapshot;
}

std::string MetricsRegistry::SummaryTable() const {
  const Snapshot snapshot = TakeSnapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << StrFormat("%-40s counter %12lld\n", name.c_str(),
                     static_cast<long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << StrFormat("%-40s gauge   %12.4f\n", name.c_str(), value);
  }
  for (const auto& [name, data] : snapshot.histograms) {
    const double mean =
        data.count > 0 ? data.sum / static_cast<double>(data.count) : 0.0;
    out << StrFormat(
        "%-40s histo   n=%-9lld sum=%-12.4g mean=%-12.2f p50<=%-10.3g "
        "p90<=%-10.3g p99<=%-10.3g\n",
        name.c_str(), static_cast<long long>(data.count), data.sum, mean,
        data.p50, data.p90, data.p99);
  }
  return out.str();
}

}  // namespace telemetry
}  // namespace ctfl
