// ctfl_serve — resident contribution-query server (DESIGN.md §13).
//
// Loads one contribution bundle into an immutable QueryEngine (memory-
// mapped by default) and answers RELATED / RELATED_FOR_TEST / EVALUATE /
// STATS / SHUTDOWN requests over the length-prefixed wire protocol, on a
// unix-domain socket (--socket) or a TCP loopback port (--port). Served
// responses are byte-identical to one-shot `ctfl query` output over the
// same bundle.
//
//   ctfl_serve --bundle FILE (--socket PATH | --port N)
//              [--num-threads T] [--lru-capacity N] [--open-mode auto|mmap|stream]
//              [--trace-isa auto|scalar|avx2|avx512|neon] [--trace-threads N]
//              [--delta-log FILE] [--delta-poll-ms MS]
//              [--idle-timeout-ms MS]
//              [--metrics-out FILE] [--record FILE.ctflr]
//
// --delta-log attaches a streaming scorer to the bundle's per-round delta
// chain (DESIGN.md §15): every round already in the log is folded at
// startup, then a poll thread re-reads the log every --delta-poll-ms
// (default 500) and folds rounds appended by a still-training run —
// STATS reports the live `rounds_folded` count and the final streamed
// score table prints at drain. --idle-timeout-ms closes connections that
// complete no frame for that long (slow-loris guard; default 5000,
// <= 0 disables), counted in `ctfl.serve.idle_closed`.
//
// Prints one "listening on ..." line once ready (scripts wait for it),
// then serves until SIGTERM/SIGINT or a SHUTDOWN request, drains
// gracefully (in-flight frames finish, response written before the drain),
// and on exit writes Prometheus-format metrics to --metrics-out.
// --record taps every handled request/response into a replay file
// (DESIGN.md §14) written at drain; `ctfl_replay replay --file F
// --bundle B` re-issues the captured traffic digest-for-digest, and
// `ctfl_query_client --load --replay F` uses it as a soak mix.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

#include <fstream>

#include "ctfl/replay/recorder.h"
#include "ctfl/serve/render.h"
#include "ctfl/serve/server.h"
#include "ctfl/serve/service.h"
#include "ctfl/store/bundle.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/stream/scorer.h"
#include "ctfl/telemetry/exposition.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/flags.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ctfl {
namespace {

volatile std::sig_atomic_t g_signal_received = 0;

void HandleSignal(int) { g_signal_received = 1; }

Result<store::BundleReader::OpenMode> ParseOpenMode(const std::string& mode) {
  if (mode == "auto") return store::BundleReader::OpenMode::kAuto;
  if (mode == "mmap") return store::BundleReader::OpenMode::kMmap;
  if (mode == "stream") return store::BundleReader::OpenMode::kStream;
  return Status::InvalidArgument("--open-mode must be auto, mmap, or stream");
}

Status Run(int argc, const char* const* argv) {
  FlagParser flags({{"bundle", ""},
                    {"socket", ""},
                    {"port", "-1"},
                    {"num-threads", "0"},
                    {"lru-capacity", "256"},
                    {"open-mode", "auto"},
                    {"trace-isa", "auto"},
                    {"trace-threads", "1"},
                    {"delta-log", ""},
                    {"delta-poll-ms", "500"},
                    {"idle-timeout-ms", "5000"},
                    {"metrics-out", ""},
                    {"record", ""}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("bundle").empty()) {
    return Status::InvalidArgument("--bundle is required");
  }
  const std::string socket_path = flags.GetString("socket");
  CTFL_ASSIGN_OR_RETURN(int port, flags.GetInt("port"));
  if (socket_path.empty() && port < 0) {
    return Status::InvalidArgument("one of --socket or --port is required");
  }
  if (!socket_path.empty() && port >= 0) {
    return Status::InvalidArgument("--socket and --port are exclusive");
  }
  CTFL_ASSIGN_OR_RETURN(int num_threads, flags.GetInt("num-threads"));
  CTFL_ASSIGN_OR_RETURN(int lru_capacity, flags.GetInt("lru-capacity"));
  if (lru_capacity < 0) {
    return Status::InvalidArgument("--lru-capacity must be >= 0");
  }
  CTFL_ASSIGN_OR_RETURN(store::BundleReader::OpenMode open_mode,
                        ParseOpenMode(flags.GetString("open-mode")));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  CTFL_ASSIGN_OR_RETURN(int trace_threads, flags.GetInt("trace-threads"));

  const std::string bundle_path = flags.GetString("bundle");
  CTFL_ASSIGN_OR_RETURN(store::BundleContent content,
                        store::ReadBundle(bundle_path, open_mode));
  serve::ServiceConfig service_config;
  service_config.lru_capacity = static_cast<size_t>(lru_capacity);
  service_config.trace_threads = trace_threads;
  {
    std::ifstream f(bundle_path, std::ios::binary | std::ios::ate);
    if (f) service_config.bundle_bytes = static_cast<uint64_t>(f.tellg());
  }
  const std::string record_out = flags.GetString("record");
  replay::ReplayRecorder recorder;
  if (!record_out.empty()) service_config.request_tap = recorder.Tap();

  // --delta-log: attach a streaming scorer to the bundle's delta chain
  // (every round already in the log is folded here), then keep polling for
  // appended rounds while serving. STATS reports the fold count live.
  const std::string delta_log = flags.GetString("delta-log");
  CTFL_ASSIGN_OR_RETURN(int delta_poll_ms, flags.GetInt("delta-poll-ms"));
  std::optional<stream::AttachedDeltaLog> attached;
  std::atomic<uint64_t> rounds_folded{0};
  if (!delta_log.empty()) {
    stream::ScorerOptions scorer_options;
    scorer_options.trace_threads = trace_threads;
    CTFL_ASSIGN_OR_RETURN(attached,
                          stream::AttachedDeltaLog::Attach(
                              content.meta, delta_log, scorer_options));
    rounds_folded.store(attached->rounds_folded(),
                        std::memory_order_relaxed);
    service_config.rounds_folded_fn = [&rounds_folded] {
      return rounds_folded.load(std::memory_order_relaxed);
    };
  }

  CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                        store::QueryEngine::FromContent(std::move(content)));
  serve::QueryService service(std::move(engine), service_config);
  const serve::ServerStats stats = service.Stats();
  std::printf("bundle %s: %u participants, %u rules, %llu train records, "
              "%llu tests\n",
              bundle_path.c_str(), stats.num_participants, stats.num_rules,
              static_cast<unsigned long long>(stats.train_records),
              static_cast<unsigned long long>(stats.test_records));
  std::printf("trace kernel: isa=%s, %d shard thread%s\n",
              TraceIsaName(CurrentTraceIsa()), trace_threads,
              trace_threads == 1 ? "" : "s");

  if (attached.has_value()) {
    std::printf("delta log %s: %llu rounds folded (poll every %d ms)\n",
                delta_log.c_str(),
                static_cast<unsigned long long>(attached->rounds_folded()),
                delta_poll_ms);
  }

  CTFL_ASSIGN_OR_RETURN(int idle_timeout_ms, flags.GetInt("idle-timeout-ms"));
  serve::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.port = port < 0 ? 0 : port;
  server_config.num_threads = num_threads;
  server_config.idle_timeout_ms = idle_timeout_ms;
  serve::Server server(&service, server_config);
  CTFL_RETURN_IF_ERROR(server.Start());

  // Streaming poll thread: fold any rounds a still-training run appended.
  // The scorer is only ever touched from this thread; request handlers
  // read the atomic fold counter. A failed poll (a read racing an append)
  // retries on the next tick.
  std::atomic<bool> poll_stop{false};
  std::thread poller;
  if (attached.has_value() && delta_poll_ms > 0) {
    poller = std::thread([&] {
      while (!poll_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delta_poll_ms));
        if (attached->Poll().ok()) {
          rounds_folded.store(attached->rounds_folded(),
                              std::memory_order_relaxed);
        }
      }
    });
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  if (!socket_path.empty()) {
    std::printf("listening on unix:%s\n", socket_path.c_str());
  } else {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);

  // The acceptor and connection handlers run on their own threads; this
  // thread watches for either a delivered signal or a protocol-driven
  // drain (a SHUTDOWN request calls Server::Shutdown() internally, which
  // flips draining()).
#if defined(__unix__) || defined(__APPLE__)
  while (g_signal_received == 0 && !server.draining()) {
    usleep(50 * 1000);
  }
#endif
  server.Shutdown();
  server.Wait();
  poll_stop.store(true, std::memory_order_release);
  if (poller.joinable()) poller.join();
  std::printf("drained after %llu requests\n",
              static_cast<unsigned long long>(
                  service.Stats().requests_total));
  if (attached.has_value()) {
    const stream::StreamingScorer& scorer = attached->scorer();
    std::printf("streamed scores after %llu rounds:\n",
                static_cast<unsigned long long>(scorer.rounds_folded()));
    for (size_t p = 0; p < scorer.num_participants(); ++p) {
      std::fputs(serve::RenderScoreRow(scorer.participant_names()[p],
                                       scorer.participant_records(p),
                                       scorer.micro_scores()[p],
                                       scorer.macro_scores()[p])
                     .c_str(),
                 stdout);
    }
  }

  if (!record_out.empty()) {
    CTFL_RETURN_IF_ERROR(recorder.WriteTo(record_out));
    std::printf("recorded %zu query events -> %s\n", recorder.num_events(),
                record_out.c_str());
  }

  const std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) return Status::IoError("cannot write " + metrics_out);
    out << telemetry::PrometheusText();
    // Info-style gauge: the label carries the dispatched SIMD tier so
    // scrapes can group runs by ISA (mirrors the bench context stamp).
    out << "# TYPE ctfl_serve_trace_isa gauge\n";
    out << "ctfl_serve_trace_isa{isa=\"" << TraceIsaName(CurrentTraceIsa())
        << "\"} 1\n";
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  return Status::OK();
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
