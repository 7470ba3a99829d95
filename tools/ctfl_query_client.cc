// ctfl_query_client — wire-protocol client for ctfl_serve.
//
// Single-shot mode (default): runs one query against a resident server
// and renders the result *byte-identically* to the tail of one-shot
// `ctfl query` over the same bundle (the CI smoke test diffs the two).
// Status chatter goes to stderr; stdout carries only the rendered result.
//
//   ctfl_query_client (--socket PATH | --port N [--host 127.0.0.1])
//     --op query      EVALUATE + optional --instances RELATED lookups
//                     (default; equals `ctfl query` output from the
//                     "scores at ..." line on). --instances needs --bundle
//                     to parse the CSV against the bundle's schema.
//     --op related-test --test-index N   one stored-test lookup
//     --op stats      server counters + bundle shape
//     --op shutdown   ask the server to drain
//
// Load mode (--load): N concurrent connections x M requests each, then a
// latency/throughput report and optionally google-benchmark-shaped JSON
// (--json-out) for BENCH_serve.json and the CI perf gate.
//
//   ctfl_query_client --socket S --load --connections 8 --requests 200
//     [--op related-test|evaluate|stats] [--verify] [--json-out FILE]
//     [--replay FILE.ctflr] [--seed N]
//
// --replay draws the load mix from a recorded replay file (DESIGN.md §14)
// instead of the synthetic single-op shape: each connection replays a
// deterministic, seeded sample of the captured RELATED / RELATED_FOR_TEST
// / EVALUATE stream (seeded per connection with --seed + connection id),
// and the report adds a per-op latency breakdown.
//
// --verify additionally checks that every response body is byte-identical
// across connections for the same request (concurrency must not change a
// single bit of any answer); under --replay it also checks each response
// digest against the digest captured at record time.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctfl/data/dataset.h"
#include "ctfl/replay/replay_file.h"
#include "ctfl/serve/client.h"
#include "ctfl/serve/protocol.h"
#include "ctfl/serve/render.h"
#include "ctfl/store/bundle.h"
#include "ctfl/util/build_info.h"
#include "ctfl/util/flags.h"
#include "ctfl/util/rng.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace {

using serve::Client;
using serve::Op;
using serve::Request;
using serve::Response;

Result<Client> Connect(const FlagParser& flags) {
  const std::string socket_path = flags.GetString("socket");
  if (!socket_path.empty()) return Client::ConnectUnix(socket_path);
  CTFL_ASSIGN_OR_RETURN(int port, flags.GetInt("port"));
  if (port <= 0) {
    return Status::InvalidArgument("one of --socket or --port is required");
  }
  return Client::ConnectTcp(flags.GetString("host"), port);
}

/// Sends `request`; transport and server-side failures both surface as
/// error Status so callers handle one channel.
Result<Response> CallChecked(Client& client, const Request& request) {
  CTFL_ASSIGN_OR_RETURN(Response response, client.Call(request));
  if (!response.status.ok()) return response.status;
  return response;
}

Status RunQueryOp(Client& client, const FlagParser& flags,
                  const store::QueryOptions& query_options,
                  const store::EvalOptions& eval_options) {
  Request request;
  request.op = Op::kEvaluate;
  request.evaluate.options = eval_options;
  CTFL_ASSIGN_OR_RETURN(Response response, CallChecked(client, request));
  std::fputs(serve::RenderEvaluation(response.report, response.origin_tau_w,
                                     response.origin_delta,
                                     response.origin_micro,
                                     response.origin_macro)
                 .c_str(),
             stdout);

  const std::string instances_path = flags.GetString("instances");
  if (instances_path.empty()) return Status::OK();
  const std::string bundle_path = flags.GetString("bundle");
  if (bundle_path.empty()) {
    return Status::InvalidArgument(
        "--instances needs --bundle (schema source for CSV parsing)");
  }
  CTFL_ASSIGN_OR_RETURN(store::BundleContent content,
                        store::ReadBundle(bundle_path));
  CTFL_ASSIGN_OR_RETURN(Dataset instances,
                        LoadCsvDataset(instances_path, content.schema));

  Request stats_request;
  stats_request.op = Op::kStats;
  CTFL_ASSIGN_OR_RETURN(Response stats, CallChecked(client, stats_request));

  std::fputs(serve::RenderRelatedHeader().c_str(), stdout);
  for (size_t i = 0; i < instances.size(); ++i) {
    Request related;
    related.op = Op::kRelated;
    related.related.instance = instances.instance(i);
    related.related.options = query_options;
    CTFL_ASSIGN_OR_RETURN(Response r, CallChecked(client, related));
    std::fputs(serve::RenderRelatedLookup(i, r.related,
                                          stats.stats.participant_names)
                   .c_str(),
               stdout);
  }
  return Status::OK();
}

Status RunRelatedTestOp(Client& client, const FlagParser& flags,
                        const store::QueryOptions& query_options) {
  CTFL_ASSIGN_OR_RETURN(int test_index, flags.GetInt("test-index"));
  if (test_index < 0) {
    return Status::InvalidArgument("--test-index must be >= 0");
  }
  Request stats_request;
  stats_request.op = Op::kStats;
  CTFL_ASSIGN_OR_RETURN(Response stats, CallChecked(client, stats_request));
  Request request;
  request.op = Op::kRelatedForTest;
  request.related_for_test.test_index = static_cast<uint64_t>(test_index);
  request.related_for_test.options = query_options;
  CTFL_ASSIGN_OR_RETURN(Response response, CallChecked(client, request));
  std::fputs(serve::RenderRelatedLookup(static_cast<size_t>(test_index),
                                        response.related,
                                        stats.stats.participant_names)
                 .c_str(),
             stdout);
  return Status::OK();
}

Status RunStatsOp(Client& client) {
  Request request;
  request.op = Op::kStats;
  CTFL_ASSIGN_OR_RETURN(Response response, CallChecked(client, request));
  const serve::ServerStats& s = response.stats;
  std::printf(
      "bundle: %u participants, %u rules, %llu train records, %llu tests "
      "(%llu bytes)\n"
      "origin: tau_w=%.4f delta=%d\n"
      "requests: %llu total, %llu errors (%llu related, %llu related-test, "
      "%llu evaluate)\n"
      "cache: %llu hits, %llu misses\n"
      "trace kernel: isa=%s, %llu exact fallbacks\n"
      "streaming: %llu rounds folded\n",
      s.num_participants, s.num_rules,
      static_cast<unsigned long long>(s.train_records),
      static_cast<unsigned long long>(s.test_records),
      static_cast<unsigned long long>(s.bundle_bytes), s.origin_tau_w,
      s.origin_delta, static_cast<unsigned long long>(s.requests_total),
      static_cast<unsigned long long>(s.errors_total),
      static_cast<unsigned long long>(s.related_requests),
      static_cast<unsigned long long>(s.related_for_test_requests),
      static_cast<unsigned long long>(s.evaluate_requests),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      s.trace_isa.empty() ? "unknown" : s.trace_isa.c_str(),
      static_cast<unsigned long long>(s.exact_fallbacks),
      static_cast<unsigned long long>(s.rounds_folded));
  return Status::OK();
}

Status RunShutdownOp(Client& client) {
  Request request;
  request.op = Op::kShutdown;
  CTFL_ASSIGN_OR_RETURN(Response response, CallChecked(client, request));
  std::fprintf(stderr, "server draining after %llu requests\n",
               static_cast<unsigned long long>(
                   response.stats.requests_total));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Load mode.
// ---------------------------------------------------------------------------

struct LoadResult {
  std::vector<double> latencies_us;  ///< one entry per completed request
  std::vector<uint8_t> ops;          ///< wire op of each entry (same order)
  Status status = Status::OK();
};

/// One replayable request drawn from a recorded query stream: the decoded
/// request (id zeroed so the client stamps fresh ids), the response digest
/// captured at record time, and the event's index in the file (the
/// cross-connection identity key).
struct ReplayItem {
  Request request;
  uint64_t digest = 0;
  size_t event_index = 0;
};

/// Decodes the digest-stable events (RELATED / RELATED_FOR_TEST /
/// EVALUATE) of a replay file into a request pool for load mode. STATS
/// and SHUTDOWN events are skipped: stats drift with traffic and a
/// replayed shutdown would drain the server mid-soak.
Result<std::vector<ReplayItem>> LoadReplayMix(const std::string& path) {
  CTFL_ASSIGN_OR_RETURN(replay::ReplayFile file,
                        replay::ReadReplayFile(path));
  std::vector<ReplayItem> items;
  items.reserve(file.events.size());
  for (size_t i = 0; i < file.events.size(); ++i) {
    const replay::QueryEvent& event = file.events[i];
    if (!replay::OpIsDigestStable(event.op)) continue;
    CTFL_ASSIGN_OR_RETURN(Request request,
                          serve::DecodeRequest(event.request));
    request.request_id = 0;
    items.push_back(ReplayItem{std::move(request), event.response_digest, i});
  }
  if (items.empty()) {
    return Status::FailedPrecondition(
        path + " holds no replayable query events (record one with "
               "`ctfl query --record` or `ctfl_serve --record`)");
  }
  return items;
}

/// Re-encodes `response` with the request id zeroed: a canonical byte
/// string for cross-connection identity checks.
std::string CanonicalBytes(Response response) {
  response.request_id = 0;
  return EncodeResponse(response);
}

Status RunLoad(const FlagParser& flags,
               const store::QueryOptions& query_options,
               const store::EvalOptions& eval_options) {
  CTFL_ASSIGN_OR_RETURN(int connections, flags.GetInt("connections"));
  CTFL_ASSIGN_OR_RETURN(int requests, flags.GetInt("requests"));
  if (connections <= 0 || requests <= 0) {
    return Status::InvalidArgument(
        "--connections and --requests must be > 0");
  }
  const std::string replay_path = flags.GetString("replay");
  std::vector<ReplayItem> mix;
  std::string op_name = flags.GetString("op");
  Op op = Op::kStats;
  if (!replay_path.empty()) {
    CTFL_ASSIGN_OR_RETURN(mix, LoadReplayMix(replay_path));
    op_name = "replay-mix";
  } else {
    if (op_name == "query") op_name = "related-test";  // load-mode default
    if (op_name == "related-test") {
      op = Op::kRelatedForTest;
    } else if (op_name == "evaluate") {
      op = Op::kEvaluate;
    } else if (op_name == "stats") {
      op = Op::kStats;
    } else {
      return Status::InvalidArgument(
          "--load supports --op related-test|evaluate|stats, got " + op_name);
    }
  }
  const bool verify = flags.GetBool("verify");
  CTFL_ASSIGN_OR_RETURN(int seed, flags.GetInt("seed"));

  // One probe connection: fail fast on a bad address and learn the test
  // count for index cycling.
  uint64_t num_tests = 0;
  {
    CTFL_ASSIGN_OR_RETURN(Client probe, Connect(flags));
    Request stats_request;
    stats_request.op = Op::kStats;
    CTFL_ASSIGN_OR_RETURN(Response stats, CallChecked(probe, stats_request));
    num_tests = stats.stats.test_records;
    if (mix.empty() && op == Op::kRelatedForTest && num_tests == 0) {
      return Status::FailedPrecondition(
          "bundle has no stored tests to cycle RELATED_FOR_TEST over");
    }
  }

  std::mutex canonical_mu;
  std::map<uint64_t, std::string> canonical;  // request key -> bytes
  std::vector<LoadResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& result = results[c];
      Result<Client> client = Connect(flags);
      if (!client.ok()) {
        result.status = client.status();
        return;
      }
      result.latencies_us.reserve(requests);
      result.ops.reserve(requests);
      // Each connection draws its own deterministic sample of the mix:
      // same --seed, same file => same per-connection request sequence.
      Rng rng(static_cast<uint64_t>(seed) + static_cast<uint64_t>(c));
      for (int i = 0; i < requests; ++i) {
        Request request;
        uint64_t key = 0;
        uint64_t want_digest = 0;
        if (!mix.empty()) {
          const ReplayItem& item = mix[rng.UniformInt(mix.size())];
          request = item.request;
          key = static_cast<uint64_t>(item.event_index);
          want_digest = item.digest;
        } else {
          request.op = op;
          if (op == Op::kRelatedForTest) {
            key = static_cast<uint64_t>(i) % num_tests;
            request.related_for_test.test_index = key;
            request.related_for_test.options = query_options;
          } else if (op == Op::kEvaluate) {
            request.evaluate.options = eval_options;
          }
        }
        const auto t0 = std::chrono::steady_clock::now();
        Result<Response> response = client->Call(request);
        const auto t1 = std::chrono::steady_clock::now();
        if (!response.ok()) {
          result.status = response.status();
          return;
        }
        if (!response->status.ok()) {
          result.status = response->status;
          return;
        }
        result.latencies_us.push_back(
            std::chrono::duration_cast<
                std::chrono::duration<double, std::micro>>(t1 - t0)
                .count());
        result.ops.push_back(static_cast<uint8_t>(request.op));
        if (verify && request.op != Op::kStats) {
          if (!mix.empty()) {
            const uint64_t got_digest = replay::ResponseDigest(*response);
            if (got_digest != want_digest) {
              result.status = Status::Internal(StrFormat(
                  "replayed event %llu: response digest %016llx differs "
                  "from the recorded digest %016llx",
                  static_cast<unsigned long long>(key),
                  static_cast<unsigned long long>(got_digest),
                  static_cast<unsigned long long>(want_digest)));
              return;
            }
          }
          const std::string bytes = CanonicalBytes(*std::move(response));
          std::lock_guard<std::mutex> lock(canonical_mu);
          auto [it, inserted] = canonical.emplace(key, bytes);
          if (!inserted && it->second != bytes) {
            result.status = Status::Internal(StrFormat(
                "response for request key %llu differs across connections",
                static_cast<unsigned long long>(key)));
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> latencies;
  std::map<uint8_t, std::vector<double>> by_op;
  for (const LoadResult& result : results) {
    CTFL_RETURN_IF_ERROR(result.status);
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    for (size_t i = 0; i < result.latencies_us.size(); ++i) {
      by_op[result.ops[i]].push_back(result.latencies_us[i]);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const size_t n = latencies.size();
  // quantile over an already-sorted vector (nearest-rank on p*(n-1)).
  auto quantile = [](const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[idx];
  };
  const double p50 = quantile(latencies, 0.50);
  const double p99 = quantile(latencies, 0.99);
  double sum = 0.0;
  for (double v : latencies) sum += v;
  const double mean = n == 0 ? 0.0 : sum / n;
  const double rps = wall_seconds > 0.0 ? n / wall_seconds : 0.0;

  std::printf("%s x %d connections x %d requests: %zu ok\n", op_name.c_str(),
              connections, requests, n);
  std::printf("throughput %.1f req/s; latency mean %.1f us, p50 %.1f us, "
              "p99 %.1f us%s\n",
              rps, mean, p50, p99,
              verify ? "; responses byte-identical across connections" : "");
  // Per-op breakdown whenever the mix spans more than one op (always the
  // interesting case under --replay).
  if (by_op.size() > 1) {
    for (auto& [op_byte, lats] : by_op) {
      std::sort(lats.begin(), lats.end());
      double op_sum = 0.0;
      for (double v : lats) op_sum += v;
      std::printf("  %-16s %6zu reqs  mean %8.1f us  p50 %8.1f us  "
                  "p99 %8.1f us\n",
                  serve::OpName(static_cast<Op>(op_byte)), lats.size(),
                  lats.empty() ? 0.0 : op_sum / lats.size(),
                  quantile(lats, 0.50), quantile(lats, 0.99));
    }
  }

  const std::string json_out = flags.GetString("json-out");
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) return Status::IoError("cannot write " + json_out);
    // google-benchmark JSON shape so tools/perf_gate.py gates it like the
    // micro benchmarks (context gate: release build + same host shape).
    out << StrFormat(
        "{\n"
        "  \"context\": {\n"
        "    \"ctfl_build_type\": \"%s\",\n"
        "    \"num_cpus\": %u\n"
        "  },\n"
        "  \"benchmarks\": [\n"
        "    {\n"
        "      \"name\": \"BM_Serve/%s/connections:%d\",\n"
        "      \"run_type\": \"iteration\",\n"
        "      \"iterations\": %zu,\n"
        "      \"real_time\": %.3f,\n"
        "      \"time_unit\": \"us\",\n"
        "      \"items_per_second\": %.3f,\n"
        "      \"p50_us\": %.3f,\n"
        "      \"p99_us\": %.3f\n"
        "    }\n"
        "  ]\n"
        "}\n",
        BuildTypeName(),
        static_cast<unsigned>(std::thread::hardware_concurrency()),
        op_name.c_str(), connections, n, mean, rps, p50, p99);
    std::fprintf(stderr, "load report -> %s\n", json_out.c_str());
  }
  return Status::OK();
}

Status Run(int argc, const char* const* argv) {
  FlagParser flags({{"socket", ""},
                    {"host", "127.0.0.1"},
                    {"port", "0"},
                    {"op", "query"},
                    {"bundle", ""},
                    {"instances", ""},
                    {"test-index", "0"},
                    {"tau-w", "-1"},
                    {"delta", "-1"},
                    {"top-k", "5"},
                    {"max-records", "3"},
                    {"load", "false"},
                    {"connections", "8"},
                    {"requests", "100"},
                    {"verify", "false"},
                    {"json-out", ""},
                    {"replay", ""},
                    {"seed", "1"}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  CTFL_ASSIGN_OR_RETURN(double tau_w, flags.GetDouble("tau-w"));
  CTFL_ASSIGN_OR_RETURN(int delta, flags.GetInt("delta"));
  CTFL_ASSIGN_OR_RETURN(int top_k, flags.GetInt("top-k"));
  CTFL_ASSIGN_OR_RETURN(int max_records, flags.GetInt("max-records"));
  store::QueryOptions query_options;
  query_options.tau_w = tau_w;
  query_options.max_records =
      static_cast<size_t>(std::max(0, max_records));
  store::EvalOptions eval_options;
  eval_options.tau_w = tau_w;
  eval_options.delta = delta;
  eval_options.top_k = top_k;

  if (flags.GetBool("load")) {
    return RunLoad(flags, query_options, eval_options);
  }

  CTFL_ASSIGN_OR_RETURN(Client client, Connect(flags));
  const std::string op = flags.GetString("op");
  if (op == "query") {
    return RunQueryOp(client, flags, query_options, eval_options);
  }
  if (op == "related-test") {
    return RunRelatedTestOp(client, flags, query_options);
  }
  if (op == "stats") return RunStatsOp(client);
  if (op == "shutdown") return RunShutdownOp(client);
  return Status::InvalidArgument(
      "--op must be query, related-test, stats, or shutdown; got " + op);
}

}  // namespace
}  // namespace ctfl

int main(int argc, char** argv) {
  const ctfl::Status status = ctfl::Run(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
