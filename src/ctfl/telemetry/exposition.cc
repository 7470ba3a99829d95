#include "ctfl/telemetry/exposition.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "ctfl/util/json.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace telemetry {
namespace {

/// Prometheus sample values: integers stay integral, doubles use enough
/// digits to round-trip, non-finite values use the official spellings.
std::string SampleValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  return StrFormat("%.17g", v);
}

/// JSON number token for a double; JSON has no Inf/NaN literals, so
/// non-finite digests (e.g. a quantile landing in the overflow bucket)
/// are written as null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

/// `le` label values: match Prometheus convention of shortest unambiguous
/// rendering; +Inf closes every histogram.
std::string LeLabel(double bound) {
  if (std::isinf(bound)) return "+Inf";
  return StrFormat("%g", bound);
}

void AppendHistogram(const std::string& name,
                     const MetricsRegistry::Snapshot::HistogramData& data,
                     std::ostringstream& out) {
  const std::string metric = PrometheusMetricName(name);
  out << "# TYPE " << metric << " histogram\n";
  int64_t cumulative = 0;
  for (size_t i = 0; i < data.bucket_counts.size(); ++i) {
    cumulative += data.bucket_counts[i];
    const double bound = i < data.bounds.size()
                             ? data.bounds[i]
                             : std::numeric_limits<double>::infinity();
    out << metric << "_bucket{le=\"" << LeLabel(bound) << "\"} "
        << cumulative << "\n";
  }
  out << metric << "_sum " << SampleValue(data.sum) << "\n";
  out << metric << "_count " << data.count << "\n";
  // Approximate quantiles ride along as summary-style samples so a
  // scraper needs no histogram_quantile() to see tail latency.
  const std::pair<const char*, double> quantiles[] = {
      {"0.5", data.p50}, {"0.9", data.p90}, {"0.99", data.p99}};
  for (const auto& [q, v] : quantiles) {
    out << metric << "{quantile=\"" << q << "\"} " << SampleValue(v)
        << "\n";
  }
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':' ||
                       (i > 0 && c >= '0' && c <= '9');
    out.push_back(valid ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string PrometheusText(const MetricsRegistry::Snapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = PrometheusMetricName(name);
    out << "# TYPE " << metric << " counter\n";
    out << metric << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = PrometheusMetricName(name);
    out << "# TYPE " << metric << " gauge\n";
    out << metric << " " << SampleValue(value) << "\n";
  }
  for (const auto& [name, data] : snapshot.histograms) {
    AppendHistogram(name, data, out);
  }
  return out.str();
}

std::string PrometheusText() {
  return PrometheusText(MetricsRegistry::Global().TakeSnapshot());
}

MetricsSnapshotWriter::MetricsSnapshotWriter(const std::string& path)
    : out_(path, std::ios::trunc), path_(path) {
  if (!out_) status_ = Status::IoError("cannot open " + path);
}

Status MetricsSnapshotWriter::WriteRound(const RoundTelemetry& round) {
  return WriteLine(StrFormat("round_%d", round.round), &round);
}

Status MetricsSnapshotWriter::WriteLabeled(const std::string& label) {
  return WriteLine(label, nullptr);
}

Status MetricsSnapshotWriter::WriteLine(const std::string& label,
                                        const RoundTelemetry* round) {
  if (!status_.ok()) return status_;
  const MetricsRegistry::Snapshot snapshot =
      MetricsRegistry::Global().TakeSnapshot();
  std::ostringstream line;
  line << "{\"seq\":" << sequence_ << ",\"label\":\"" << JsonEscape(label)
       << "\"";
  if (round != nullptr) {
    line << ",\"round\":{"
         << "\"round\":" << round->round
         << ",\"seconds\":" << JsonNumber(round->seconds)
         << ",\"cpu_seconds\":" << JsonNumber(round->cpu_seconds)
         << ",\"mean_local_loss\":"
         << JsonNumber(round->mean_local_loss)
         << ",\"clients_trained\":" << round->clients_trained
         << ",\"clients_dropped\":" << round->clients_dropped
         << ",\"retries\":" << round->retries
         << ",\"degraded\":" << (round->degraded ? "true" : "false") << "}";
  }
  line << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) line << ",";
    first = false;
    line << "\"" << JsonEscape(name) << "\":" << value;
  }
  line << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) line << ",";
    first = false;
    line << "\"" << JsonEscape(name)
         << "\":" << JsonNumber(value);
  }
  line << "},\"histograms\":{";
  first = true;
  for (const auto& [name, data] : snapshot.histograms) {
    if (!first) line << ",";
    first = false;
    line << "\"" << JsonEscape(name) << "\":{\"count\":" << data.count
         << ",\"sum\":" << JsonNumber(data.sum)
         << ",\"p50\":" << JsonNumber(data.p50)
         << ",\"p90\":" << JsonNumber(data.p90)
         << ",\"p99\":" << JsonNumber(data.p99) << "}";
  }
  line << "}}";
  out_ << line.str() << "\n";
  out_.flush();
  if (!out_) {
    status_ = Status::IoError("write failed: " + path_);
    return status_;
  }
  ++sequence_;
  return Status::OK();
}

}  // namespace telemetry
}  // namespace ctfl
