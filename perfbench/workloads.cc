#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_set>

#include "ctfl/core/allocation.h"
#include "ctfl/core/pipeline.h"
#include "ctfl/core/tracer.h"
#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/fl/fedavg.h"
#include "ctfl/fl/partition.h"
#include "ctfl/kernel/trace_kernel.h"
#include "ctfl/mining/test_grouping.h"
#include "ctfl/nn/loss.h"
#include "ctfl/nn/matrix.h"
#include "ctfl/nn/optimizer.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/serve/client.h"
#include "ctfl/serve/server.h"
#include "ctfl/serve/service.h"
#include "ctfl/store/bundle.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/store/snapshot.h"
#include "ctfl/stream/delta_log.h"
#include "ctfl/stream/emitter.h"
#include "ctfl/stream/scorer.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/build_info.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

using ctfl::Bitset;
using ctfl::CtflConfig;
using ctfl::CtflReport;
using ctfl::Dataset;
using ctfl::Federation;
using ctfl::Result;
using ctfl::Status;

// ---- Fixture: the `ctfl score` defaults ROADMAP item 3 measured -----------

constexpr size_t kTrainRecords = 20000;
constexpr size_t kTestRecords = 2000;
/// Fresh instances for RELATED requests, drawn from their own seed stream.
constexpr size_t kPoolRecords = 2048;
constexpr int kParticipants = 8;
constexpr double kAlpha = 0.8;
constexpr int kWidth = 96;
constexpr double kTauW = 0.9;
constexpr int kBatch = 64;
constexpr double kLearningRate = 0.05;
constexpr int kRounds = 5;
// The training side of the fixture (records, partition, initial wiring,
// local-training shuffles) uses the `ctfl score` default seed, 42, so every
// run trains the same model and does the same training work: drawn from
// the seed, a run's cost moved by 10-20% between seeds (the trained rules
// set how many records each key matches) and by up to 1.5x with the
// partition (the largest client sets every round's time). The seed draws
// the test set, the fresh instances and the request streams.
constexpr uint64_t kTrainSeed = 42;
constexpr int kScoreLocalEpochs = 2;   // fed-score
constexpr int kBundleLocalEpochs = 1;  // serve-lookup's bundle

// Every thread knob is pinned (never 0 = "all cores"), so a run means the
// same work on any host.
constexpr int kThreads = 4;
constexpr int kTraceThreads = 1;
constexpr int kServerThreads = 2;
constexpr int kClients = 2;
constexpr size_t kLruCapacity = 256;
constexpr size_t kMaxRecords = 3;

/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupMinSeconds, and its median reported, so a burst of host steal
/// does not decide setup_s.
constexpr int kSetupReps = 3;
constexpr double kSetupMinSeconds = 1.0;

// Work per run is fixed by --seconds: ops = seconds / nominal seconds per
// op on the reference host (4-vCPU KVM guest), so cpu_s compares across
// commits while the measured phase lasts about --seconds.
constexpr double kNominalScoreS = 8.0;  // one RunCtfl
constexpr double kNominalRequestsPerS = 4500.0;
constexpr size_t kWarmupRequests = 400;
/// Request count of the serve probe in fed-score's traced run.
constexpr size_t kProbeRequests = 400;
/// In-process lookups of the traced run: a prefix of the request stream.
constexpr size_t kInProcessLookups = 4000;

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"fl.train_s", "s"},
          {"fl.round_ms", "ms"},
          {"fl.round_idle_share", "ratio"},
          {"fl.grafting_steps", "count"},
          {"nn.step_us", "us"},
          {"nn.encode_us", "us"},
          {"nn.forward_cont_us", "us"},
          {"nn.forward_disc_us", "us"},
          {"nn.backward_us", "us"},
          {"nn.optim_us", "us"},
          {"core.upload_s", "s"},
          {"core.trace_s", "s"},
          {"core.allocate_ms", "ms"},
          {"kernel.tau_w_checks", "count"},
          {"kernel.blocks_pruned", "count"},
          {"kernel.hit_ratio", "ratio"},
          {"store.open_ms", "ms"},
          {"stream.read_ms", "ms"},
          {"stream.from_header_ms", "ms"},
          {"stream.fold_ms", "ms"},
          {"core.tracer_build_ms", "ms"},
          {"core.trace_forwards_ms", "ms"},
          {"mining.group_ms", "ms"},
          {"kernel.pack_ms", "ms"},
          {"core.match_accumulate_ms", "ms"},
          {"store.evaluate_ms", "ms"},
          {"store.eval_tau_w_checks", "count"},
          {"store.eval_postings_scanned", "count"},
          {"store.eval_candidates_pruned", "count"},
          {"store.related_us", "us"},
          {"store.related_for_test_us", "us"},
          {"nn.infer_us", "us"},
          {"serve.overhead_us", "us"},
          {"serve.p99_us", "us"},
          {"serve.cache_hit_ratio", "ratio"},
          {"store.postings_per_lookup", "count"},
          {"kernel.checks_per_lookup", "count"},
          {"kernel.blocks_pruned_per_lookup", "count"},
      };
  return *metrics;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Ms(double seconds) { return seconds * 1e3; }
double Us(double seconds) { return seconds * 1e6; }

struct Fixture {
  Dataset test;
  Federation federation;
};

Result<Fixture> MakeFixture(uint64_t seed) {
  CTFL_ASSIGN_OR_RETURN(
      Dataset train,
      ctfl::MakeBenchmark("adult", kTrainRecords, kTrainSeed));
  CTFL_ASSIGN_OR_RETURN(
      Dataset test,
      ctfl::MakeBenchmark("adult", kTestRecords, SubSeed(seed, 2)));
  ctfl::Rng rng(kTrainSeed);
  Federation federation = ctfl::MakeFederation(
      ctfl::PartitionSkewSample(train, kParticipants, kAlpha, rng));
  return Fixture{std::move(test), std::move(federation)};
}

CtflConfig MakeConfig(int local_epochs) {
  CtflConfig config;
  config.federated = true;
  config.fedavg.rounds = kRounds;
  config.fedavg.local_epochs = local_epochs;
  config.fedavg.local.learning_rate = kLearningRate;
  config.fedavg.local.batch_size = kBatch;
  config.fedavg.local.seed = kTrainSeed;
  config.net.logic_layers = {{kWidth / 2, kWidth - kWidth / 2}};
  config.net.seed = kTrainSeed;
  config.tracer.tau_w = kTauW;
  config.tracer.trace_threads = kTraceThreads;
  config.tracer.isa = ctfl::CurrentTraceIsa();
  // The master knob, and every per-component knob it sets, so RunCtfl and
  // the traced decomposition run the same thread settings.
  config.num_threads = kThreads;
  config.fedavg.num_threads = kThreads;
  config.fedavg.local.num_threads = kThreads;
  config.central.num_threads = kThreads;
  config.tracer.num_threads = kThreads;
  return config;
}

int64_t ExpectedGraftingSteps(const Federation& federation,
                              int local_epochs) {
  int64_t batches = 0;
  for (const ctfl::Participant& p : federation) {
    batches += static_cast<int64_t>((p.data.size() + kBatch - 1) / kBatch);
  }
  return batches * local_epochs * kRounds;
}

/// Gates every scoring run: group rationality (paper §III-D: Σ micro =
/// matched accuracy, and so is Σ macro at δ = 1, where every matched test
/// splits its whole credit) and a grafting-step count that shows training
/// ran the configured schedule.
void CheckScore(const CtflReport& report, const Federation& federation,
                int local_epochs, const std::string& what, Ledger* ledger) {
  ledger->Check(
      SumMatches(report.micro_scores, report.trace.matched_accuracy, 1e-12),
      what + ": sum(micro) != matched_accuracy");
  ledger->Check(
      SumMatches(report.macro_scores, report.trace.matched_accuracy, 1e-12),
      what + ": sum(macro) != matched_accuracy");
  ledger->Check(report.telemetry.grafting_steps ==
                    ExpectedGraftingSteps(federation, local_epochs),
                what + ": grafting steps " +
                    std::to_string(report.telemetry.grafting_steps) +
                    " != expected " +
                    std::to_string(
                        ExpectedGraftingSteps(federation, local_epochs)));
}

void CheckScoresEqual(const std::vector<double>& got,
                      const std::vector<double>& want, const std::string& what,
                      Ledger* ledger) {
  std::string why;
  const bool equal = ScoresBitEqual(got, want, &why);
  ledger->Check(equal, what + ": " + why);
}

// ---- Scoring: one RunCtfl call, or its public calls in sequence ----------

Result<CtflReport> ScoreUntraced(const Fixture& fx, const CtflConfig& base,
                                 const std::string& bundle_out) {
  CtflConfig config = base;
  config.bundle_out = bundle_out;
  CTFL_ASSIGN_OR_RETURN(CtflReport report,
                        ctfl::RunCtfl(fx.federation, fx.test, config));
  CTFL_RETURN_IF_ERROR(report.bundle_status);
  return report;
}

struct TracedScore {
  std::optional<CtflReport> report;
  std::vector<std::vector<Bitset>> uploads;
  std::vector<double> round_ms;
  std::vector<double> round_idle_share;
};

/// The traced decomposition of RunCtfl: TrainFederated, upload
/// activations, the precomputed-uploads tracer + Trace, allocation — each
/// a span under "score". FedAvg rounds become "fl.round" spans from
/// model_observer timestamps.
Status ScoreTraced(const Fixture& fx, const CtflConfig& config,
                   SpanRecorder* rec, TracedScore* out) {
  ScopedSpan score(*rec, "score");
  ctfl::FedAvgConfig fedavg = config.fedavg;
  Clock::time_point round_start = Clock::now();
  double cpu_start = ProcessCpuSeconds();
  fedavg.model_observer = [&](int round, const ctfl::LogicalNet&,
                              const ctfl::telemetry::RoundTelemetry&) {
    const Clock::time_point now = Clock::now();
    const double cpu = ProcessCpuSeconds();
    if (round > 0) {
      rec->Add("fl.round", round_start, now);
      const double wall =
          std::chrono::duration<double>(now - round_start).count();
      out->round_ms.push_back(Ms(wall));
      // Idle share of the thread budget while the round waits for its
      // largest client.
      out->round_idle_share.push_back(1.0 -
                                      (cpu - cpu_start) / (wall * kThreads));
    }
    round_start = now;
    cpu_start = cpu;
  };
  ctfl::FedAvgStats stats;
  Result<ctfl::LogicalNet> trained = [&] {
    ScopedSpan span(*rec, "fl.train");
    std::vector<Dataset> clients;
    clients.reserve(fx.federation.size());
    for (const ctfl::Participant& p : fx.federation) {
      clients.push_back(p.data);
    }
    return ctfl::TrainFederated(fx.federation[0].data.schema(), config.net,
                                clients, fedavg, &stats);
  }();
  CTFL_RETURN_IF_ERROR(trained.status());
  out->report.emplace(std::move(trained).value());
  CtflReport& report = *out->report;
  report.telemetry.grafting_steps = stats.grafting_steps;
  {
    ScopedSpan span(*rec, "core.upload");
    out->uploads = ctfl::ContributionTracer::ComputeUploadActivations(
        report.model, fx.federation, config.tracer);
  }
  std::vector<std::vector<Bitset>> adopted = out->uploads;
  {
    ScopedSpan span(*rec, "core.trace");
    const ctfl::ContributionTracer tracer(&report.model, &fx.federation,
                                          config.tracer, std::move(adopted));
    report.trace = tracer.Trace(fx.test);
  }
  {
    ScopedSpan span(*rec, "core.allocate");
    report.micro_scores = ctfl::MicroAllocation(report.trace);
    report.macro_scores =
        ctfl::MacroAllocation(report.trace, config.macro_delta);
  }
  return Status::OK();
}

/// Persists a bundle exactly as RunCtfl's bundle_out phase does.
Status WriteBundleOf(const Fixture& fx, const CtflConfig& config,
                     const CtflReport& report,
                     const std::vector<std::vector<Bitset>>& uploads,
                     const std::string& path) {
  ctfl::store::SnapshotOptions snapshot;
  snapshot.tau_w = config.tracer.tau_w;
  snapshot.macro_delta = config.macro_delta;
  snapshot.min_rule_weight = config.tracer.min_rule_weight;
  snapshot.dp_epsilon = config.tracer.dp_epsilon;
  snapshot.failure_plan_fingerprint = config.fedavg.failure.Fingerprint();
  snapshot.micro_scores = report.micro_scores;
  snapshot.macro_scores = report.macro_scores;
  snapshot.global_accuracy = report.trace.global_accuracy;
  snapshot.matched_accuracy = report.trace.matched_accuracy;
  CTFL_ASSIGN_OR_RETURN(ctfl::store::BundleContent content,
                        ctfl::store::BuildBundleContent(
                            report.model, fx.federation, fx.test, uploads,
                            snapshot));
  return ctfl::store::WriteBundle(content, path);
}

// ---- Stream: one replay of a delta log --------------------------------------

struct FoldStats {
  double from_header_ms = 0.0;
  std::vector<double> fold_ms;  ///< one per Fold
};

/// StreamingScorer::FromHeader, then Fold for every round of `log`; the
/// folded scores must bit-match `want`.
Status FoldReplay(const ctfl::stream::DeltaLogContents& log,
                  const CtflReport& want, SpanRecorder* rec, Ledger* ledger,
                  FoldStats* out) {
  ctfl::stream::ScorerOptions options;
  options.num_threads = kThreads;
  options.trace_threads = kTraceThreads;
  ctfl::stream::DeltaHeader header = log.header;
  const Clock::time_point start = Clock::now();
  Result<ctfl::stream::StreamingScorer> scorer = [&] {
    ScopedSpan span(*rec, "stream.from_header");
    return ctfl::stream::StreamingScorer::FromHeader(std::move(header),
                                                     options);
  }();
  out->from_header_ms = Ms(SecondsSince(start));
  CTFL_RETURN_IF_ERROR(scorer.status());
  for (const ctfl::stream::RoundDelta& delta : log.rounds) {
    ledger->Attempt();
    const Clock::time_point fold_start = Clock::now();
    Status folded;
    {
      ScopedSpan span(*rec, "stream.fold");
      folded = scorer->Fold(delta);
    }
    out->fold_ms.push_back(Ms(SecondsSince(fold_start)));
    ledger->Check(folded.ok(), "fold: " + folded.ToString());
  }
  CheckScoresEqual(scorer->micro_scores(), want.micro_scores,
                   "replay micro vs stored", ledger);
  CheckScoresEqual(scorer->macro_scores(), want.macro_scores,
                   "replay macro vs stored", ledger);
  return Status::OK();
}

// ---- Serve: point lookups ---------------------------------------------------

struct Lookup {
  bool fresh = false;  ///< RELATED on pool[index]; else RELATED_FOR_TEST
  size_t index = 0;
};

/// Half RELATED on a uniformly drawn fresh instance, half
/// RELATED_FOR_TEST on a Zipf(1)-ranked stored test whose ranks are
/// scattered over the test indices by a seeded permutation.
std::vector<Lookup> MakeLookups(uint64_t seed, size_t count) {
  ctfl::Rng rng(seed);
  std::vector<size_t> scatter(kTestRecords);
  std::iota(scatter.begin(), scatter.end(), size_t{0});
  for (size_t i = scatter.size() - 1; i > 0; --i) {
    std::swap(scatter[i], scatter[rng.UniformInt(i + 1)]);
  }
  std::vector<double> cdf(kTestRecords);
  double total = 0.0;
  for (size_t k = 0; k < kTestRecords; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  std::vector<Lookup> lookups(count);
  for (Lookup& lookup : lookups) {
    lookup.fresh = rng.Bernoulli(0.5);
    if (lookup.fresh) {
      lookup.index = rng.UniformInt(kPoolRecords);
    } else {
      const double u = rng.Uniform() * total;
      const size_t rank = std::min<size_t>(
          kTestRecords - 1,
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      lookup.index = scatter[rank];
    }
  }
  return lookups;
}

ctfl::serve::Request ToRequest(const Lookup& lookup, const Dataset& pool) {
  ctfl::store::QueryOptions options;  // origin τ_w
  options.max_records = kMaxRecords;
  ctfl::serve::Request request;
  if (lookup.fresh) {
    request.op = ctfl::serve::Op::kRelated;
    request.related.instance = pool.instance(lookup.index);
    request.related.options = options;
  } else {
    request.op = ctfl::serve::Op::kRelatedForTest;
    request.related_for_test.test_index = lookup.index;
    request.related_for_test.options = options;
  }
  return request;
}

/// The in-process engine's answer to `request`, as the service would
/// encode it.
ctfl::serve::Response InProcess(const ctfl::store::QueryEngine& engine,
                                const ctfl::serve::Request& request) {
  ctfl::serve::Response response;
  response.op = request.op;
  if (request.op == ctfl::serve::Op::kRelated) {
    ctfl::store::QueryOptions options = request.related.options;
    options.trace_threads = kTraceThreads;
    response.related = engine.Related(request.related.instance, options);
  } else {
    ctfl::store::QueryOptions options = request.related_for_test.options;
    options.trace_threads = kTraceThreads;
    response.related = engine.RelatedForTest(
        request.related_for_test.test_index, options);
  }
  return response;
}

/// Engine, service, server and connected clients of one serve set-up.
/// Members are destroyed in reverse order: clients close before the
/// server drains, and the server stops before the service it calls.
struct ServeStack {
  std::unique_ptr<ctfl::serve::QueryService> service;
  std::unique_ptr<ctfl::serve::Server> server;
  std::vector<ctfl::serve::Client> clients;
};

Status StartServe(ctfl::store::QueryEngine engine,
                  const std::string& socket_path, ServeStack* stack) {
  ctfl::serve::ServiceConfig service_config;
  service_config.lru_capacity = kLruCapacity;
  service_config.trace_threads = kTraceThreads;
  stack->service = std::make_unique<ctfl::serve::QueryService>(
      std::move(engine), service_config);
  ctfl::serve::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.num_threads = kServerThreads;
  // Connections sit idle while the correctness pass runs in-process.
  server_config.idle_timeout_ms = 600000;
  stack->server = std::make_unique<ctfl::serve::Server>(stack->service.get(),
                                                        server_config);
  CTFL_RETURN_IF_ERROR(stack->server->Start());
  for (int c = 0; c < kClients; ++c) {
    CTFL_ASSIGN_OR_RETURN(ctfl::serve::Client client,
                          ctfl::serve::Client::ConnectUnix(socket_path));
    stack->clients.push_back(std::move(client));
  }
  return Status::OK();
}

struct ServedCall {
  double seconds = 0.0;
  uint64_t digest = 0;
  int64_t tau_w_checks = 0;
  bool ok = false;
};

/// Closed loop: client c sends requests c, c + kClients, ... and waits for
/// each reply before sending the next.
std::vector<ServedCall> RunClients(
    ServeStack* stack, const std::vector<ctfl::serve::Request>& requests) {
  std::vector<ServedCall> calls(requests.size());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < requests.size(); i += kClients) {
        const Clock::time_point start = Clock::now();
        Result<ctfl::serve::Response> response =
            stack->clients[c].Call(requests[i]);
        calls[i].seconds = SecondsSince(start);
        calls[i].ok = response.ok() && response->status.ok();
        if (calls[i].ok) {
          calls[i].digest = ResponseDigest(*response);
          calls[i].tau_w_checks = response->related.tau_w_checks;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return calls;
}

struct ServeStats {
  std::vector<double> rtt_us;
  double tau_w_checks = 0.0;  ///< mean per request
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU of the timed phase (both sides)
  double cache_hit_ratio = 0.0;
};

/// Warm-up, then the timed request phase, then the gates: every response
/// digest equals the in-process answer, and STATS counts every request
/// sent with no errors.
Status ServeRequests(ServeStack* stack, const Dataset& pool,
                     const std::vector<Lookup>& warmup,
                     const std::vector<Lookup>& lookups, Ledger* ledger,
                     ServeStats* out) {
  std::vector<ctfl::serve::Request> warm_requests;
  for (const Lookup& l : warmup) warm_requests.push_back(ToRequest(l, pool));
  std::vector<ctfl::serve::Request> requests;
  for (const Lookup& l : lookups) requests.push_back(ToRequest(l, pool));

  ledger->Attempt(static_cast<int64_t>(warm_requests.size()));
  for (const ServedCall& call : RunClients(stack, warm_requests)) {
    ledger->Check(call.ok, "warm-up request failed");
  }
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const std::vector<ServedCall> calls = RunClients(stack, requests);
  out->wall_s = SecondsSince(start);
  out->cpu_s = ProcessCpuSeconds() - cpu_start;
  ledger->Attempt(static_cast<int64_t>(requests.size()));

  ctfl::serve::Request stats_request;
  stats_request.op = ctfl::serve::Op::kStats;
  ledger->Attempt();
  CTFL_ASSIGN_OR_RETURN(ctfl::serve::Response stats,
                        stack->clients[0].Call(stats_request));
  const uint64_t sent = warm_requests.size() + requests.size() + 1;
  ledger->Check(stats.stats.requests_total == sent,
                "STATS requests_total " +
                    std::to_string(stats.stats.requests_total) +
                    " != sent " + std::to_string(sent));
  ledger->Check(stats.stats.errors_total == 0, "STATS errors_total != 0");
  const uint64_t lookups_cached =
      stats.stats.cache_hits + stats.stats.cache_misses;
  out->cache_hit_ratio =
      lookups_cached == 0
          ? 0.0
          : static_cast<double>(stats.stats.cache_hits) / lookups_cached;

  // Expected digests, computed once per distinct request.
  const ctfl::store::QueryEngine& engine = stack->service->engine();
  std::map<std::pair<bool, size_t>, uint64_t> expected;
  for (size_t i = 0; i < lookups.size(); ++i) {
    const auto key = std::make_pair(lookups[i].fresh, lookups[i].index);
    auto it = expected.find(key);
    if (it == expected.end()) {
      it = expected
               .emplace(key, ResponseDigest(InProcess(engine, requests[i])))
               .first;
    }
    ledger->Check(calls[i].ok && calls[i].digest == it->second,
                  "served response " + std::to_string(i) +
                      " differs from the in-process answer");
    out->rtt_us.push_back(Us(calls[i].seconds));
    out->tau_w_checks += calls[i].tau_w_checks;
  }
  out->tau_w_checks /= std::max<size_t>(1, calls.size());
  return Status::OK();
}

// ---- Per-layer probes of the traced run -------------------------------------

/// Single-threaded replay of one local epoch of the largest participant
/// on two copies of the trained model: one takes GraftedStep per batch
/// ("nn.step"), the other the public calls GraftedStep makes, each in its
/// own span. Both copies must end bit-identical.
void NnReplay(const ctfl::LogicalNet& trained, const Fixture& fx,
              SpanRecorder* rec, Ledger* ledger) {
  ScopedSpan replay(*rec, "nn.replay");
  ctfl::SetMatrixParallelism(1);
  const ctfl::Participant* largest = &fx.federation[0];
  for (const ctfl::Participant& p : fx.federation) {
    if (p.data.size() > largest->data.size()) largest = &p;
  }
  const Dataset& data = largest->data;
  ctfl::LogicalNet whole = trained;
  ctfl::LogicalNet parts = trained;
  ctfl::AdamOptimizer whole_optimizer(kLearningRate);
  ctfl::AdamOptimizer parts_optimizer(kLearningRate);
  ledger->Attempt();
  for (size_t begin = 0; begin < data.size(); begin += kBatch) {
    const size_t end = std::min(data.size(), begin + kBatch);
    std::vector<size_t> rows(end - begin);
    std::iota(rows.begin(), rows.end(), begin);
    std::vector<int> labels;
    for (size_t r : rows) labels.push_back(data.instance(r).label);
    ctfl::Matrix encoded = [&] {
      ScopedSpan span(*rec, "nn.encode");
      return parts.EncodeBatch(data, rows);
    }();
    {
      ScopedSpan span(*rec, "nn.step");
      ctfl::GraftedStep(whole, encoded, labels, whole_optimizer);
    }
    ctfl::LogicalNet::Cache cache;
    {
      ScopedSpan span(*rec, "nn.forward_cont");
      parts.ForwardContinuous(encoded, &cache);
    }
    ctfl::Matrix logits = [&] {
      ScopedSpan span(*rec, "nn.forward_disc");
      return parts.ForwardDiscrete(encoded);
    }();
    ctfl::Matrix dlogits;
    {
      ScopedSpan span(*rec, "nn.loss");
      ctfl::SoftmaxCrossEntropy(logits, labels, &dlogits);
      parts.ZeroGrads();
    }
    {
      ScopedSpan span(*rec, "nn.backward");
      parts.Backward(cache, dlogits);
    }
    {
      ScopedSpan span(*rec, "nn.optim");
      const std::vector<ctfl::ParamSlot> slots = parts.ParamSlots();
      parts_optimizer.Step(slots);
      parts.ProjectWeights();
    }
  }
  ctfl::SetMatrixParallelism(kThreads);
  CheckScoresEqual(parts.GetParameters(), whole.GetParameters(),
                   "nn replay: decomposed step vs GraftedStep", ledger);
}

std::vector<std::vector<uint8_t>> LabelsOf(const Federation& federation) {
  std::vector<std::vector<uint8_t>> labels(federation.size());
  for (size_t p = 0; p < federation.size(); ++p) {
    for (const ctfl::Instance& inst : federation[p].data.instances()) {
      labels[p].push_back(static_cast<uint8_t>(inst.label));
    }
  }
  return labels;
}

/// The calls a Fold makes, on the final model's uploads and test forwards:
/// the borrowing tracer constructor, TraceForwards and allocation (whose
/// scores must bit-match the run's), plus Max-Miner grouping of the same
/// class-masked test supports and the per-class kernel packing, each
/// timed on its own.
void FoldLayerProbe(const CtflReport& report, const Fixture& fx,
                    const std::vector<std::vector<Bitset>>& uploads,
                    const CtflConfig& config, SpanRecorder* rec,
                    Ledger* ledger) {
  const ctfl::TracerConfig& tracer_config = config.tracer;
  ScopedSpan probe(*rec, "probe.fold_layers");
  const ctfl::LogicalNet& model = report.model;
  const int num_rules = model.num_rules();
  const std::vector<std::vector<uint8_t>> labels = LabelsOf(fx.federation);
  std::vector<ctfl::TestForward> forwards(fx.test.size());
  for (size_t t = 0; t < fx.test.size(); ++t) {
    const ctfl::Instance& inst = fx.test.instance(t);
    forwards[t].label = static_cast<uint8_t>(inst.label);
    forwards[t].predicted = static_cast<uint8_t>(model.Predict(inst));
    forwards[t].activation = model.RuleActivations(inst);
  }
  ledger->Attempt();
  std::optional<ctfl::ContributionTracer> tracer;
  {
    ScopedSpan span(*rec, "core.tracer_build");
    tracer.emplace(&model, &labels, &uploads, tracer_config);
  }
  ctfl::TraceResult trace;
  {
    ScopedSpan span(*rec, "core.trace_forwards");
    trace = tracer->TraceForwards(forwards);
  }
  std::vector<double> micro;
  std::vector<double> macro;
  {
    ScopedSpan span(*rec, "probe.allocate");
    micro = ctfl::MicroAllocation(trace);
    macro = ctfl::MacroAllocation(trace, config.macro_delta);
  }
  CheckScoresEqual(micro, report.micro_scores, "TraceForwards micro", ledger);
  CheckScoresEqual(macro, report.macro_scores, "TraceForwards macro", ledger);

  // Class-masked, deduplicated test supports: the keys the tracer groups.
  std::vector<double> weights(num_rules, 0.0);
  Bitset mask[2] = {Bitset(num_rules), Bitset(num_rules)};
  for (int j = 0; j < num_rules; ++j) {
    const double w = model.RuleWeight(j);
    if (w < tracer_config.min_rule_weight) continue;
    weights[j] = w;
    mask[model.RuleClass(j)].Set(j);
  }
  std::vector<Bitset> supports[2];
  std::unordered_set<Bitset, ctfl::BitsetHash> seen[2];
  for (const ctfl::TestForward& fwd : forwards) {
    Bitset support = fwd.activation;
    support &= mask[fwd.predicted];
    double weight = 0.0;
    support.ForEachSetBit([&](size_t j) { weight += weights[j]; });
    if (weight > 0.0 && seen[fwd.predicted].insert(support).second) {
      supports[fwd.predicted].push_back(std::move(support));
    }
  }
  {
    ScopedSpan span(*rec, "mining.group");
    for (int c = 0; c < 2; ++c) {
      if (supports[c].size() < tracer_config.grouping.min_instances) continue;
      ctfl::GroupActivations(supports[c], weights, tracer_config.tau_w,
                             tracer_config.grouping);
    }
  }
  std::vector<const Bitset*> bucket[2];
  for (size_t p = 0; p < uploads.size(); ++p) {
    for (size_t i = 0; i < uploads[p].size(); ++i) {
      bucket[labels[p][i]].push_back(&uploads[p][i]);
    }
  }
  ctfl::TraceKernel kernels[2];
  {
    ScopedSpan span(*rec, "kernel.pack");
    for (int c = 0; c < 2; ++c) {
      kernels[c] = ctfl::TraceKernel(std::move(bucket[c]), num_rules);
    }
  }
}

struct LookupStats {
  std::vector<double> related_us;  ///< fresh instances (never cached)
  std::vector<double> related_for_test_us;
  std::vector<double> infer_us;
  double postings = 0.0;
  double checks = 0.0;
  double blocks_pruned = 0.0;
};

/// In-process Related / RelatedForTest on the run's own request stream,
/// and deployed inference (Predict + RuleActivations) per fresh instance.
void InProcessLookups(const ctfl::store::QueryEngine& engine,
                      const Dataset& pool, const std::vector<Lookup>& lookups,
                      SpanRecorder* rec, LookupStats* out) {
  ScopedSpan probe(*rec, "probe.lookups");
  for (const Lookup& lookup : lookups) {
    const ctfl::serve::Request request = ToRequest(lookup, pool);
    const Clock::time_point start = Clock::now();
    const ctfl::serve::Response response = InProcess(engine, request);
    const double us = Us(SecondsSince(start));
    (lookup.fresh ? out->related_us : out->related_for_test_us).push_back(us);
    out->postings += response.related.postings_scanned;
    out->checks += response.related.tau_w_checks;
    out->blocks_pruned += response.related.blocks_pruned;
    if (lookup.fresh) {
      const ctfl::Instance& inst = pool.instance(lookup.index);
      const Clock::time_point infer_start = Clock::now();
      engine.model().Predict(inst);
      const Bitset activation = engine.model().RuleActivations(inst);
      out->infer_us.push_back(Us(SecondsSince(infer_start)));
    }
  }
  const double n = std::max<size_t>(1, lookups.size());
  out->postings /= n;
  out->checks /= n;
  out->blocks_pruned /= n;
}

// ---- Run scaffolding --------------------------------------------------------

struct RunPaths {
  std::string dir;
  std::string bundle;
  std::string log;
  std::string socket;
};

RunPaths MakePaths(const RunOptions& options) {
  RunPaths paths;
  const std::string tag = std::to_string(::getpid());
  paths.dir = options.work_dir + "/" + options.workload + "-" + tag;
  std::filesystem::create_directories(paths.dir);
  paths.bundle = paths.dir + "/run.ctflb";
  paths.log = paths.dir + "/probe.ctfld";
  // sun_path holds 108 bytes: keep the socket path short and relative.
  paths.socket = options.work_dir + "/" + tag + ".sock";
  return paths;
}

Result<Dataset> MakePool(uint64_t seed) {
  return ctfl::MakeBenchmark("adult", kPoolRecords, SubSeed(seed, 6));
}

/// One round of one local epoch over the whole fixture: pages in code,
/// data and thread pools at full size before anything is timed.
Status WarmUpScore(const Fixture& fx, const CtflConfig& base) {
  CtflConfig config = base;
  config.fedavg.rounds = 1;
  config.fedavg.local_epochs = 1;
  return ctfl::RunCtfl(fx.federation, fx.test, config).status();
}

bool SetupDone(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() >= static_cast<size_t>(kSetupReps) &&
         total >= kSetupMinSeconds;
}

void AddCommon(const std::vector<double>& setup_s, double cpu_s,
               MetricSet* m) {
  m->Add("setup_s", Median(setup_s), "s");
  m->Add("cpu_s", cpu_s, "s");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// ---- Untraced workloads -----------------------------------------------------

Status FedScore(const RunOptions& options, MetricSet* m, MetricSet* extra,
                Ledger* ledger) {
  std::optional<Fixture> fx;
  std::vector<double> setup_s;
  while (!SetupDone(setup_s)) {
    fx.reset();
    const Clock::time_point start = Clock::now();
    CTFL_ASSIGN_OR_RETURN(Fixture made, MakeFixture(options.seed));
    fx.emplace(std::move(made));
    setup_s.push_back(SecondsSince(start));
  }
  const CtflConfig config = MakeConfig(kScoreLocalEpochs);
  CTFL_RETURN_IF_ERROR(WarmUpScore(*fx, config));

  const int runs =
      std::max(1, static_cast<int>(std::lround(options.seconds /
                                               kNominalScoreS)));
  std::vector<double> score_s;
  std::optional<CtflReport> first;
  const double cpu_start = ProcessCpuSeconds();
  for (int i = 0; i < runs; ++i) {
    ledger->Attempt();
    const Clock::time_point run_start = Clock::now();
    CTFL_ASSIGN_OR_RETURN(CtflReport report,
                          ScoreUntraced(*fx, config, ""));
    score_s.push_back(SecondsSince(run_start));
    CheckScore(report, fx->federation, kScoreLocalEpochs, "score", ledger);
    if (first.has_value()) {
      CheckScoresEqual(report.micro_scores, first->micro_scores,
                       "repeat micro", ledger);
      CheckScoresEqual(report.macro_scores, first->macro_scores,
                       "repeat macro", ledger);
    } else {
      first.emplace(std::move(report));
    }
  }
  AddCommon(setup_s, ProcessCpuSeconds() - cpu_start, m);
  m->Add("latency_ms", Ms(Median(score_s)), "ms");
  extra->Add("score_s", Median(score_s), "s");
  extra->Add("score_runs", runs, "count");
  extra->Add("trace_tau_w_checks", first->trace.tau_w_checks, "count");
  return Status::OK();
}

size_t RequestsFor(int seconds) {
  return static_cast<size_t>(seconds * kNominalRequestsPerS);
}

Status ServeLookup(const RunOptions& options, const RunPaths& paths,
                   MetricSet* m, MetricSet* extra, Ledger* ledger) {
  std::optional<Dataset> pool;
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_s;
  while (!SetupDone(setup_s)) {
    stack.reset();
    pool.reset();
    const Clock::time_point start = Clock::now();
    // The fixture, then one federated RunCtfl (5 rounds x 1 local epoch)
    // that writes the bundle the engine serves.
    CTFL_ASSIGN_OR_RETURN(Fixture fx, MakeFixture(options.seed));
    ledger->Attempt();
    CTFL_ASSIGN_OR_RETURN(
        CtflReport report,
        ScoreUntraced(fx, MakeConfig(kBundleLocalEpochs), paths.bundle));
    CheckScore(report, fx.federation, kBundleLocalEpochs, "set-up score",
               ledger);
    CTFL_ASSIGN_OR_RETURN(Dataset made, MakePool(options.seed));
    pool.emplace(std::move(made));
    CTFL_ASSIGN_OR_RETURN(ctfl::store::QueryEngine engine,
                          ctfl::store::QueryEngine::Open(paths.bundle));
    stack = std::make_unique<ServeStack>();
    CTFL_RETURN_IF_ERROR(
        StartServe(std::move(engine), paths.socket, stack.get()));
    setup_s.push_back(SecondsSince(start));
  }
  const std::vector<Lookup> warmup =
      MakeLookups(SubSeed(options.seed, 8), kWarmupRequests);
  const std::vector<Lookup> lookups =
      MakeLookups(SubSeed(options.seed, 7), RequestsFor(options.seconds));
  ServeStats stats;
  CTFL_RETURN_IF_ERROR(
      ServeRequests(stack.get(), *pool, warmup, lookups, ledger, &stats));
  AddCommon(setup_s, stats.cpu_s, m);
  m->Add("latency_ms", NearestRankPercentile(stats.rtt_us, 50) / 1e3, "ms");
  extra->Add("serve_rps", lookups.size() / stats.wall_s, "1/s");
  extra->Add("serve_p50_us", NearestRankPercentile(stats.rtt_us, 50), "us");
  extra->Add("serve_p99_us", NearestRankPercentile(stats.rtt_us, 99), "us");
  extra->Add("serve_samples", stats.rtt_us.size(), "count");
  extra->Add("serve_cache_hit_ratio", stats.cache_hit_ratio, "ratio");
  extra->Add("serve_tau_w_checks", stats.tau_w_checks, "count");
  return Status::OK();
}

// ---- Traced run -------------------------------------------------------------

/// The traced run of every workload: the workload's scoring (fed-score's
/// measured phase, serve-lookup's set-up) as its public calls in spans,
/// then a probe of every layer. serve-lookup's request phase runs at full
/// size; the stream replay, Evaluate and, on fed-score, the serve phase
/// run once or on kProbeRequests requests, so every per-layer metric is
/// measured on every workload.
Status Traced(const RunOptions& options, const RunPaths& paths,
              SpanRecorder* rec, MetricSet* m, MetricSet* extra,
              Ledger* ledger) {
  const bool fed_score = options.workload == "fed-score";
  const int local_epochs = fed_score ? kScoreLocalEpochs : kBundleLocalEpochs;

  std::optional<Fixture> fx;
  {
    ScopedSpan span(*rec, "data.fixture");
    CTFL_ASSIGN_OR_RETURN(Fixture made, MakeFixture(options.seed));
    fx.emplace(std::move(made));
  }
  const CtflConfig config = MakeConfig(local_epochs);

  // fed-score: the untraced call is the reference the traced
  // decomposition must reproduce bit-for-bit, and the base of the
  // tracing overhead.
  std::optional<CtflReport> untraced;
  double untraced_s = 0.0;
  if (fed_score) {
    CTFL_RETURN_IF_ERROR(WarmUpScore(*fx, config));
    ledger->Attempt();
    const Clock::time_point start = Clock::now();
    CTFL_ASSIGN_OR_RETURN(CtflReport report,
                          ScoreUntraced(*fx, config, ""));
    untraced_s = SecondsSince(start);
    untraced.emplace(std::move(report));
  }
  TracedScore scored;
  ledger->Attempt();
  const Clock::time_point score_start = Clock::now();
  CTFL_RETURN_IF_ERROR(ScoreTraced(*fx, config, rec, &scored));
  const double traced_s = SecondsSince(score_start);
  const CtflReport& report = *scored.report;
  CheckScore(report, fx->federation, local_epochs, "traced score", ledger);
  if (untraced.has_value()) {
    CheckScoresEqual(report.micro_scores, untraced->micro_scores,
                     "traced micro vs RunCtfl", ledger);
    CheckScoresEqual(report.macro_scores, untraced->macro_scores,
                     "traced macro vs RunCtfl", ledger);
    extra->Add("score_s", untraced_s, "s");
    extra->Add("score_s_traced", traced_s, "s");
    extra->Add("tracing_overhead", traced_s / untraced_s - 1.0, "ratio");
  }
  const double covered =
      rec->TotalSeconds("fl.train") + rec->TotalSeconds("core.upload") +
      rec->TotalSeconds("core.trace") + rec->TotalSeconds("core.allocate");
  const double score_wall = rec->TotalSeconds("score");
  extra->Add("span_coverage", covered / score_wall, "ratio");
  ledger->Check(covered >= 0.95 * score_wall,
                "top-level spans cover less than 95% of the traced scoring");

  {
    ScopedSpan span(*rec, "store.bundle_write");
    CTFL_RETURN_IF_ERROR(
        WriteBundleOf(*fx, config, report, scored.uploads, paths.bundle));
  }
  std::optional<ctfl::store::QueryEngine> engine;
  {
    ScopedSpan span(*rec, "store.open");
    CTFL_ASSIGN_OR_RETURN(ctfl::store::QueryEngine opened,
                          ctfl::store::QueryEngine::Open(paths.bundle));
    engine.emplace(std::move(opened));
  }

  NnReplay(report.model, *fx, rec, ledger);
  FoldLayerProbe(report, *fx, scored.uploads, config, rec, ledger);

  // Stream: a one-round delta log from the initial to the final model,
  // read back and folded; the fold must land on the run's scores.
  {
    ScopedSpan span(*rec, "probe.stream_log");
    ctfl::stream::DeltaLogEmitter emitter(paths.log, &fx->federation,
                                          &fx->test, &config);
    const ctfl::LogicalNet initial(fx->federation[0].data.schema(),
                                   config.net);
    ctfl::telemetry::RoundTelemetry round;
    round.round = 1;
    round.clients_trained = kParticipants;
    emitter.Observe(0, initial, ctfl::telemetry::RoundTelemetry{});
    emitter.Observe(1, report.model, round);
    CTFL_RETURN_IF_ERROR(emitter.status());
  }
  std::optional<ctfl::stream::DeltaLogContents> log;
  {
    ScopedSpan span(*rec, "stream.read");
    CTFL_ASSIGN_OR_RETURN(ctfl::stream::DeltaLogContents read,
                          ctfl::stream::ReadDeltaLog(paths.log));
    log.emplace(std::move(read));
  }
  FoldStats fold;
  CTFL_RETURN_IF_ERROR(FoldReplay(*log, report, rec, ledger, &fold));

  // Store: one batch re-evaluation at the originating τ_w, which must
  // bit-match the bundle's stored scores.
  ctfl::store::EvalOptions eval_options;
  eval_options.trace_threads = kTraceThreads;
  ledger->Attempt();
  const Clock::time_point eval_start = Clock::now();
  ctfl::store::QueryReport eval;
  {
    ScopedSpan span(*rec, "store.evaluate");
    eval = engine->Evaluate(eval_options);
  }
  const double evaluate_ms = Ms(SecondsSince(eval_start));
  CheckScoresEqual(eval.micro, engine->bundle().meta.micro_scores,
                   "evaluate micro vs stored", ledger);
  CheckScoresEqual(eval.macro, engine->bundle().meta.macro_scores,
                   "evaluate macro vs stored", ledger);

  CTFL_ASSIGN_OR_RETURN(Dataset pool, MakePool(options.seed));
  const std::vector<Lookup> warmup =
      MakeLookups(SubSeed(options.seed, 8),
                  fed_score ? kProbeRequests / 4 : kWarmupRequests);
  const std::vector<Lookup> lookups =
      MakeLookups(SubSeed(options.seed, 7),
                  fed_score ? kProbeRequests : RequestsFor(options.seconds));
  ServeStack stack;
  {
    ScopedSpan span(*rec, "serve.start");
    CTFL_RETURN_IF_ERROR(StartServe(std::move(*engine), paths.socket, &stack));
  }
  ServeStats served;
  {
    ScopedSpan span(*rec, "serve.requests");
    CTFL_RETURN_IF_ERROR(
        ServeRequests(&stack, pool, warmup, lookups, ledger, &served));
  }
  LookupStats lookup;
  const std::vector<Lookup> prefix(
      lookups.begin(),
      lookups.begin() + std::min(lookups.size(), kInProcessLookups));
  InProcessLookups(stack.service->engine(), pool, prefix, rec, &lookup);

  const auto median_us = [&](const std::string& name) {
    return Us(Median(rec->Durations(name)));
  };
  const auto total_ms = [&](const std::string& name) {
    return Ms(rec->TotalSeconds(name));
  };
  m->Add("fl.train_s",
         rec->TotalSeconds("fl.train") - rec->TotalSeconds("stream.emit"),
         "s");
  m->Add("fl.round_ms", Median(scored.round_ms), "ms");
  m->Add("fl.round_idle_share", Median(scored.round_idle_share), "ratio");
  m->Add("fl.grafting_steps", report.telemetry.grafting_steps, "count");
  m->Add("nn.step_us", median_us("nn.step"), "us");
  m->Add("nn.encode_us", median_us("nn.encode"), "us");
  m->Add("nn.forward_cont_us", median_us("nn.forward_cont"), "us");
  m->Add("nn.forward_disc_us", median_us("nn.forward_disc"), "us");
  m->Add("nn.backward_us", median_us("nn.backward"), "us");
  m->Add("nn.optim_us", median_us("nn.optim"), "us");
  m->Add("core.upload_s", rec->TotalSeconds("core.upload"), "s");
  m->Add("core.trace_s", rec->TotalSeconds("core.trace"), "s");
  m->Add("core.allocate_ms", total_ms("core.allocate"), "ms");
  m->Add("kernel.tau_w_checks", report.trace.tau_w_checks, "count");
  m->Add("kernel.blocks_pruned", report.trace.blocks_pruned, "count");
  m->Add("kernel.hit_ratio",
         static_cast<double>(report.trace.related_records) /
             std::max<int64_t>(1, report.trace.tau_w_checks),
         "ratio");
  m->Add("store.open_ms", total_ms("store.open"), "ms");
  m->Add("stream.read_ms", total_ms("stream.read"), "ms");
  m->Add("stream.from_header_ms", fold.from_header_ms, "ms");
  m->Add("stream.fold_ms", Median(fold.fold_ms), "ms");
  const double tracer_build_ms = total_ms("core.tracer_build");
  const double trace_forwards_ms = total_ms("core.trace_forwards");
  const double group_ms = total_ms("mining.group");
  m->Add("core.tracer_build_ms", tracer_build_ms, "ms");
  m->Add("core.trace_forwards_ms", trace_forwards_ms, "ms");
  m->Add("mining.group_ms", group_ms, "ms");
  m->Add("kernel.pack_ms", total_ms("kernel.pack"), "ms");
  m->Add("core.match_accumulate_ms", trace_forwards_ms - group_ms, "ms");
  m->Add("store.evaluate_ms", evaluate_ms, "ms");
  m->Add("store.eval_tau_w_checks", eval.tau_w_checks, "count");
  m->Add("store.eval_postings_scanned", eval.postings_scanned,
         "count");
  m->Add("store.eval_candidates_pruned", eval.candidates_pruned,
         "count");
  m->Add("store.related_us", Median(lookup.related_us), "us");
  m->Add("store.related_for_test_us", Median(lookup.related_for_test_us),
         "us");
  m->Add("nn.infer_us", Median(lookup.infer_us), "us");
  // RELATED only: RELATED_FOR_TEST round trips may hit the service's LRU,
  // which the in-process engine call does not have.
  std::vector<double> related_rtt_us;
  for (size_t i = 0; i < lookups.size(); ++i) {
    if (lookups[i].fresh) related_rtt_us.push_back(served.rtt_us[i]);
  }
  m->Add("serve.overhead_us",
         Median(related_rtt_us) - Median(lookup.related_us), "us");
  m->Add("serve.p99_us", NearestRankPercentile(served.rtt_us, 99), "us");
  m->Add("serve.cache_hit_ratio", served.cache_hit_ratio, "ratio");
  m->Add("store.postings_per_lookup", lookup.postings, "count");
  m->Add("kernel.checks_per_lookup", lookup.checks, "count");
  m->Add("kernel.blocks_pruned_per_lookup", lookup.blocks_pruned, "count");
  extra->Add("serve_samples", served.rtt_us.size(), "count");
  return Status::OK();
}

void PrintSelfTimes(const SpanRecorder& rec) {
  std::printf("%-24s %8s %12s %12s\n", "span", "calls", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rec.SelfTimeTable()) {
    std::printf("%-24s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(row.calls), Ms(row.total_s),
                Ms(row.self_s));
  }
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>{
          {"setup_s", "s"},
          {"latency_ms", "ms"},
          {"cpu_s", "s"},
          {"peak_rss_mb", "MB"},
      };
  return *metrics;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names =
      new std::vector<std::string>{"fed-score", "serve-lookup"};
  return *names;
}

int RunWorkload(const RunOptions& options) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) ==
      names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  // Numbers from an unoptimized build are not comparable; refuse them.
  if (std::string(CTFL_PERFBENCH_BUILD_TYPE) != "Release" ||
      std::string(ctfl::BuildTypeName()) != "release") {
    std::fprintf(stderr,
                 "perfbench: refusing a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 CTFL_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // In-program spans (CTFL_SPAN) stay off in every run.
  ctfl::telemetry::SetTracingEnabled(false);
  ctfl::SetMatrixParallelism(kThreads);

  const CpuTicks ticks_start = ReadCpuTicks();
  const RunPaths paths = MakePaths(options);
  MetricSet metrics;
  MetricSet extra;
  Ledger ledger;
  std::unique_ptr<SpanRecorder> rec;
  Status status;
  if (options.trace) {
    rec = std::make_unique<SpanRecorder>(
        SubSeed(options.seed, static_cast<uint64_t>(::getpid())));
    status = Traced(options, paths, rec.get(), &metrics, &extra, &ledger);
  } else if (options.workload == "fed-score") {
    status = FedScore(options, &metrics, &extra, &ledger);
  } else {
    status = ServeLookup(options, paths, &metrics, &extra, &ledger);
  }
  std::error_code ec;
  std::filesystem::remove_all(paths.dir, ec);
  std::filesystem::remove(paths.socket, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  const double steal = StealShare(ticks_start, ReadCpuTicks());

  std::map<std::string, std::string> context = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"num_threads", std::to_string(kThreads)},
      {"trace_threads", std::to_string(kTraceThreads)},
      {"server_threads", std::to_string(kServerThreads)},
      {"clients", std::to_string(kClients)},
      {"trace_isa", ctfl::TraceIsaName(ctfl::CurrentTraceIsa())},
      {"build_type", CTFL_PERFBENCH_BUILD_TYPE},
      {"revision", options.revision},
      {"steal_share", JsonNumber(steal)},
      {"program_spans", ctfl::telemetry::TracingEnabled() ? "on" : "off"},
  };
  std::string context_json = "{";
  for (const auto& [key, value] : context) {
    context_json += (context_json.size() > 1 ? ", " : "") + JsonString(key) +
                    ": " + JsonString(value);
  }
  std::printf("context %s}\n", context_json.c_str());

  if (rec != nullptr) {
    const std::string trace_dir = options.work_dir + "/traces";
    std::filesystem::create_directories(trace_dir, ec);
    const std::string trace_path = trace_dir + "/" + options.workload +
                                   "-seed" + std::to_string(options.seed) +
                                   ".json";
    std::ofstream(trace_path) << rec->ToChromeTrace(context);
    std::printf("trace %s (%zu spans)\n", trace_path.c_str(),
                rec->spans().size());
    PrintSelfTimes(*rec);
  }
  std::fputs(extra.ToText().c_str(), stdout);

  // The result carries exactly the declared metric list of this mode.
  const auto& declared = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  MetricSet result;
  for (const auto& [name, unit] : declared) {
    if (!metrics.Has(name) || !ValidMetricName(name)) {
      std::fprintf(stderr, "perfbench: metric '%s' missing or misnamed\n",
                   name.c_str());
      return 1;
    }
    result.Add(name, metrics.Get(name), unit);
  }
  std::fputs(result.ToText().c_str(), stdout);
  const bool correct = ledger.failed() == 0;
  std::printf("%s\n", ResultLine(correct, ledger.attempted(), ledger.failed(),
                                 result)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
