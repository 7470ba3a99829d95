#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double NearestRankPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool ScoresBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, &got[i], sizeof(a));
    std::memcpy(&b, &want[i], sizeof(b));
    if (a != b) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "entry %zu: %.17g vs %.17g", i, got[i],
                    want[i]);
      *why = buf;
      return false;
    }
  }
  return true;
}

bool SumMatches(const std::vector<double>& micro, double matched_accuracy,
                double tolerance) {
  double sum = 0.0;
  for (double v : micro) sum += v;
  return std::fabs(sum - matched_accuracy) <= tolerance;
}

namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t ResponseDigest(ctfl::serve::Response response) {
  response.request_id = 0;
  return Fnv1a(ctfl::serve::EncodeResponse(response));
}

bool Ledger::Check(bool ok, const std::string& what) {
  if (!ok) {
    // The first failures name the cause; a systematic one would flood.
    if (++failed_ <= 20) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  return ok;
}

SpanRecorder::SpanRecorder(uint64_t run_id)
    : run_id_(run_id), epoch_(Clock::now()) {}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[id].end_ns = Now();
  // Spans close in LIFO order on the orchestrating thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::Add(const std::string& name, Clock::time_point start,
                       Clock::time_point end) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  spans_.push_back(std::move(span));
}

double SpanRecorder::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (double d : Durations(name)) total += d;
  return total;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e9);
  }
  return out;
}

std::map<std::string, SpanRecorder::SelfRow> SpanRecorder::SelfTimeTable()
    const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfRow> table;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    SelfRow& row = table[spans_[i].name];
    ++row.calls;
    row.total_s += dur / 1e9;
    row.self_s += std::max<int64_t>(0, dur - child_ns[i]) / 1e9;
  }
  return table;
}

std::string SpanRecorder::ToChromeTrace(
    const std::map<std::string, std::string>& context) const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : context) {
    out << (first ? "" : ",") << JsonString(key) << ":" << JsonString(value);
    first = false;
  }
  out << "},\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":" << JsonString(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << JsonNumber(s.start_ns / 1e3)
        << ",\"dur\":" << JsonNumber((s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"span_id\":" << i << ",\"parent\":" << s.parent
        << ",\"run_id\":\"" << run_id_ << "\"}}";
  }
  out << "]}\n";
  return out.str();
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already included in user/nice.
  for (int col = 0; col < 8; ++col) {
    uint64_t v = 0;
    if (!(in >> v)) return ticks;
    ticks.total += v;
    if (col == 7) ticks.steal = v;
  }
  ticks.valid = true;
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (!before.valid || !after.valid || after.total <= before.total) {
    return -1.0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double ProcessCpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries_[i].name) +
           ": {\"value\": " + JsonNumber(entries_[i].value) +
           ", \"unit\": " + JsonString(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricSet::ToText() const {
  std::string out;
  for (const Entry& e : entries_) {
    out += "metric " + e.name + " = " + JsonNumber(e.value) + " " + e.unit +
           "\n";
  }
  return out;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.ToJson() + "}";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
