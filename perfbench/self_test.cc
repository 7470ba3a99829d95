// Self-tests of the benchmark's helpers: order statistics, the metric-name
// rule, the span self-time table, and every correctness comparator
// catching a tampered answer.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what);
  }
}

void TestPercentile() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(NearestRankPercentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  Expect(NearestRankPercentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  Expect(NearestRankPercentile(hundred, 100) == 100, "p100 is the max");
  Expect(NearestRankPercentile(hundred, 0.5) == 1, "p0.5 is the min");
  Expect(NearestRankPercentile({7}, 99) == 7, "single sample");
  // Nearest rank never interpolates: ceil(0.9 * 4) = 4th of {1,2,3,4}.
  Expect(NearestRankPercentile({4, 1, 3, 2}, 90) == 4, "p90 of 4 samples");
  Expect(NearestRankPercentile({4, 1, 3, 2}, 50) == 2, "p50 of 4 samples");
  Expect(NearestRankPercentile({}, 50) == 0, "empty sample");
}

void TestMedian() {
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle");
  Expect(Median({5}) == 5, "single repetition");
  Expect(Median({}) == 0, "no repetitions");
}

void TestMetricNames() {
  for (const char* good : {"setup_s", "fl.train_s", "p-99", "9lives",
                           "serve.cache_hit_ratio"}) {
    Expect(ValidMetricName(good), good);
  }
  for (const char* bad : {"", "_lead", ".lead", "a b", "x/y", "µs",
                          "tab\t"}) {
    Expect(!ValidMetricName(bad), bad);
  }
  Expect(ValidMetricName(std::string(64, 'a')), "64 characters");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters");
}

void TestScoreComparators() {
  const std::vector<double> scores = {0.125, 0.25, 1.0 / 3.0, 0.0};
  std::string why;
  Expect(ScoresBitEqual(scores, scores, &why), "equal vectors match");
  std::vector<double> nudged = scores;
  nudged[2] = std::nextafter(nudged[2], 1.0);
  Expect(!ScoresBitEqual(nudged, scores, &why), "one-ulp change caught");
  Expect(why.find("entry 2") != std::string::npos, "mismatch names entry");
  std::vector<double> signed_zero = scores;
  signed_zero[3] = -0.0;
  Expect(!ScoresBitEqual(signed_zero, scores, &why), "-0.0 vs 0.0 caught");
  Expect(!ScoresBitEqual({0.125, 0.25}, scores, &why), "size change caught");

  const std::vector<double> micro = {0.5, 0.25, 0.125};
  Expect(SumMatches(micro, 0.875, 1e-12), "group rationality holds");
  std::vector<double> inflated = micro;
  inflated[1] += 1e-9;
  Expect(!SumMatches(inflated, 0.875, 1e-12), "inflated micro caught");
}

ctfl::serve::Response SampleResponse() {
  ctfl::serve::Response response;
  response.op = ctfl::serve::Op::kRelatedForTest;
  response.request_id = 41;
  response.related.predicted = 1;
  response.related.support_size = 3;
  response.related.support_weight = 1.75;
  response.related.related_count = {4, 0, 2};
  response.related.total_related = 6;
  response.related.records = {{0, 11}, {0, 12}, {2, 7}};
  response.related.tau_w_checks = 90;
  return response;
}

void TestResponseComparator() {
  const ctfl::serve::Response served = SampleResponse();
  ctfl::serve::Response expected = SampleResponse();
  expected.request_id = 0;
  Expect(ResponseDigest(served) == ResponseDigest(expected),
         "request id is ignored");

  ctfl::serve::Response tampered = SampleResponse();
  tampered.related.related_count[1] = 1;
  Expect(ResponseDigest(tampered) != ResponseDigest(expected),
         "tampered related count caught");
  tampered = SampleResponse();
  tampered.related.records[2].local_index = 8;
  Expect(ResponseDigest(tampered) != ResponseDigest(expected),
         "tampered record ref caught");
  tampered = SampleResponse();
  tampered.related.support_weight =
      std::nextafter(tampered.related.support_weight, 2.0);
  Expect(ResponseDigest(tampered) != ResponseDigest(expected),
         "one-ulp support weight caught");
  tampered = SampleResponse();
  tampered.status = ctfl::Status::OutOfRange("bad index");
  Expect(ResponseDigest(tampered) != ResponseDigest(expected),
         "error status caught");
}

void TestLedger() {
  Ledger ledger;
  ledger.Attempt(3);
  Expect(ledger.Check(true, "holds"), "passing check returns true");
  Expect(!ledger.Check(false, "self-test: expected failure"),
         "failing check returns false");
  Expect(ledger.attempted() == 3 && ledger.failed() == 1,
         "ledger counts attempts and failures");
}

void TestSelfTime() {
  SpanRecorder rec(7);
  {
    ScopedSpan parent(rec, "parent");
    const Clock::time_point t0 = Clock::now();
    const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
    rec.Add("child", at(10), at(40));
    rec.Add("child", at(50), at(60));
    std::this_thread::sleep_for(std::chrono::milliseconds(70));
  }
  const auto table = rec.SelfTimeTable();
  const auto& child = table.at("child");
  Expect(child.calls == 2, "two child spans");
  Expect(std::fabs(child.total_s - 0.040) < 1e-9, "child total 40 ms");
  Expect(rec.spans()[1].parent == 0 && rec.spans()[0].parent == -1,
         "parent links");
  const auto& parent = table.at("parent");
  Expect(parent.total_s >= 0.040 &&
             std::fabs(parent.self_s - (parent.total_s - 0.040)) < 1e-9,
         "parent self time excludes its children");
  const std::string json = rec.ToChromeTrace({{"workload", "self-test"}});
  Expect(json.find("\"ph\":\"X\"") != std::string::npos, "chrome events");
  Expect(json.find("\"otherData\":{\"workload\":\"self-test\"}") !=
             std::string::npos,
         "trace context");
}

void TestResultLine() {
  MetricSet metrics;
  metrics.Add("latency_ms", 1.2034, "ms");
  metrics.Add("setup_s", 0.8127, "s");
  Expect(ResultLine(true, 10, 0, metrics) ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.81269999999999998, "
             "\"unit\": \"s\"}}}",
         "result line layout");
  Expect(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "JSON escapes");
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  TestPercentile();
  TestMedian();
  TestMetricNames();
  TestScoreComparators();
  TestResponseComparator();
  TestLedger();
  TestSelfTime();
  TestResultLine();
  return failures;
}

}  // namespace perfbench
