#include "ctfl/fl/fedavg.h"

#include <algorithm>
#include <utility>

#include "ctfl/fl/secure_agg.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/cpu_time.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/stopwatch.h"
#include "ctfl/util/string_util.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {

namespace {

/// Result of one client's local training for one round, produced by any
/// worker thread but *committed* in client-index order so that weighted
/// averaging, secure-aggregation masking, and the round's loss stats are
/// bit-identical to the serial schedule (DESIGN.md §9).
struct ClientUpdate {
  /// Raw (unweighted) local parameters; re-weighting happens at commit
  /// time over the surviving cohort (zeros for an empty client).
  std::vector<double> params;
  double final_loss = 0.0;
  int steps = 0;
  bool trained = false;
};

/// Per-(round, client) training seed. Mixing the client index in (via a
/// SplitMix64-style finalizer) guarantees that clients holding identical
/// data still draw distinct batch shuffles and therefore emit distinct
/// updates — the old derivation `base + round * 7919` made every client
/// of a round train with one shared seed, correlating shuffles across
/// the federation.
uint64_t PerClientSeed(uint64_t base, int round, size_t client) {
  uint64_t z = base + static_cast<uint64_t>(round) * 7919;
  z ^= (static_cast<uint64_t>(client) + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Status RunFedAvg(LogicalNet& global, const std::vector<Dataset>& clients,
                 const FedAvgConfig& config, FedAvgStats* stats) {
  // Reset stats before any early return so callers never read a previous
  // invocation's rounds out of a reused FedAvgStats.
  if (stats != nullptr) {
    stats->rounds.clear();
    stats->rounds.reserve(config.rounds > 0 ? config.rounds : 0);
    stats->grafting_steps = 0;
    stats->clients_dropped = 0;
    stats->retries = 0;
    stats->rounds_degraded = 0;
  }
  if (config.retry_budget < 0) {
    return Status::InvalidArgument(
        StrFormat("retry_budget must be >= 0, got %d", config.retry_budget));
  }

  size_t nonempty_clients = 0;
  {
    size_t total = 0;
    for (const Dataset& c : clients) {
      total += c.size();
      if (!c.empty()) ++nonempty_clients;
    }
    if (total == 0) return Status::OK();
  }

  static telemetry::Counter& round_counter =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.train.rounds");
  static telemetry::Histogram& round_hist =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "ctfl.train.round_us");
  static telemetry::Gauge& parallel_gauge =
      telemetry::MetricsRegistry::Global().GetGauge(
          "ctfl.train.parallel_clients");
  static telemetry::Counter& dropped_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.train.clients_dropped");
  static telemetry::Counter& degraded_counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.train.rounds_degraded");
  static telemetry::Counter& retry_counter =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.train.retries");

  TrainConfig local = config.local;
  local.epochs = config.local_epochs;
  const FailurePlan& plan = config.failure;

  // Fan local training out over the compute pool with the configured
  // thread budget, the calling thread included. Threads that run out of
  // clients help the ones still training (help-while-waiting), so the
  // budget is not capped at the client count; clients are claimed largest
  // first so a straggler starts early.
  const int threads = ResolveThreadCount(config.num_threads);
  parallel_gauge.Set(
      std::max<int>(1, std::min<int>(threads,
                                     static_cast<int>(nonempty_clients))));
  std::vector<size_t> claim_order(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) claim_order[c] = c;
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&](size_t a, size_t b) {
                     return clients[a].size() > clients[b].size();
                   });

  if (config.model_observer) {
    // Round 0: the initialized global model before any training — the
    // baseline a streaming delta chain diffs against.
    config.model_observer(0, global, telemetry::RoundTelemetry{});
  }

  Stopwatch round_watch;
  // Process-wide CPU clock so a round's cpu_seconds includes the
  // ThreadPool workers' local-training time, not just this thread.
  ProcessCpuStopwatch round_cpu_watch;
  for (int round = 0; round < config.rounds; ++round) {
    CTFL_SPAN("ctfl.train.round");
    const std::vector<double> global_params = global.GetParameters();

    // ---- Availability: dropout is decided before any compute is spent —
    // an offline client neither trains nor uploads, and (being offline)
    // gets no retries.
    std::vector<char> available(clients.size(), 1);
    if (!plan.empty()) {
      for (size_t c = 0; c < clients.size(); ++c) {
        if (!clients[c].empty() &&
            plan.DropsOut(round, static_cast<int>(c))) {
          available[c] = 0;
        }
      }
    }

    // ---- Fan-out: each available client trains a private copy of the
    // global net. Workers only touch their own ClientUpdate slot;
    // `global` is read-only until every worker has joined. Spans inside
    // workers carry the worker's trace thread id, so Chrome-trace
    // timelines attribute each client's training to the worker that ran
    // it.
    std::vector<ClientUpdate> results(clients.size());
    auto train_client = [&](size_t c) {
      const Dataset& client = clients[c];
      ClientUpdate& out = results[c];
      if (client.empty()) {
        // Empty clients contribute a zero update to the weighted average.
        out.params.assign(global_params.size(), 0.0);
        return;
      }
      if (!available[c]) return;  // offline: no update this round
      CTFL_SPAN("ctfl.train.client");
      LogicalNet local_net = global;  // start from the global weights
      TrainConfig client_config = local;
      client_config.seed = PerClientSeed(config.local.seed, round, c);
      const TrainReport report = TrainGrafted(local_net, client,
                                              client_config);
      out.final_loss = report.final_loss;
      out.steps = report.steps;
      out.trained = true;
      out.params = local_net.GetParameters();
    };
    ParallelFor(threads, 0, clients.size(),
                [&](size_t i) { train_client(claim_order[i]); });

    // ---- Ordered commit: uploads are received, validated, and (on
    // fault) retried in client-index order. The floating-point folds
    // below (loss sum, re-weighting, aggregation) therefore see the
    // exact operand sequence of the serial schedule, and — with an empty
    // plan — of the fault-free engine.
    double loss_sum = 0.0;
    int clients_trained = 0;
    int round_dropped = 0;
    int round_retries = 0;
    std::vector<int> cohort;  // accepted clients, ascending
    cohort.reserve(clients.size());
    std::vector<std::vector<double>> updates(clients.size());
    size_t cohort_volume = 0;  // data volume of the surviving cohort
    for (size_t c = 0; c < clients.size(); ++c) {
      ClientUpdate& result = results[c];
      if (clients[c].empty()) {
        // An empty client's zero update is always "accepted": it cannot
        // fail, and keeping it in the cohort preserves the fault-free
        // masking schedule bit-for-bit.
        cohort.push_back(static_cast<int>(c));
        updates[c] = std::move(result.params);
        continue;
      }
      if (!available[c]) {
        ++round_dropped;
        if (config.verbose) {
          CTFL_LOG(Info) << "round " << round << ": client " << c
                         << " dropped out";
        }
        continue;
      }
      // Upload with a bounded retry budget. Every attempt draws its own
      // fault outcome from the plan (a retry can fail again) and the
      // server validates what actually arrived — quarantine, never
      // abort.
      bool accepted = false;
      Status last_error;
      const int attempts = 1 + config.retry_budget;
      for (int attempt = 0; attempt < attempts && !accepted; ++attempt) {
        const FailureKind kind =
            plan.empty() ? FailureKind::kNone
                         : plan.UploadOutcome(round, static_cast<int>(c),
                                              attempt);
        Status verdict;
        if (kind == FailureKind::kStraggler) {
          // The payload never arrived inside the round deadline; there
          // is nothing to validate.
          verdict = Status::FailedPrecondition(
              "upload missed the round deadline");
        } else if (kind == FailureKind::kNone) {
          // Clean attempt: validate in place, no defensive copy — this
          // is the whole fault-free fast path.
          verdict = ValidateClientUpdate(result.params,
                                         global_params.size());
          if (verdict.ok()) {
            updates[c] = std::move(result.params);
            accepted = true;
            break;
          }
        } else {
          std::vector<double> upload = result.params;
          TamperUpdate(kind, round, static_cast<int>(c), attempt, upload);
          verdict = ValidateClientUpdate(upload, global_params.size());
          if (verdict.ok()) {
            updates[c] = std::move(upload);
            accepted = true;
            break;
          }
        }
        last_error = verdict;
        if (attempt + 1 < attempts) ++round_retries;
        if (config.verbose) {
          CTFL_LOG(Info) << "round " << round << ": client " << c
                         << " upload attempt " << attempt << " rejected ("
                         << FailureKindName(kind)
                         << "): " << verdict.message();
        }
      }
      if (!accepted) {
        ++round_dropped;
        CTFL_LOG(Warning) << "round " << round << ": client " << c
                          << " quarantined after " << attempts
                          << " attempt(s): " << last_error.message();
        continue;
      }
      cohort.push_back(static_cast<int>(c));
      cohort_volume += clients[c].size();
      loss_sum += result.final_loss;
      ++clients_trained;
      if (stats != nullptr) stats->grafting_steps += result.steps;
    }

    const bool degraded = round_dropped > 0;
    // ---- Partial-cohort re-weighted averaging: survivors are weighted
    // by their share of the *surviving* data volume (the FedAvg average
    // over the cohort, McMahan et al.). With a full cohort this is the
    // same weight sequence as the fault-free engine.
    if (cohort_volume > 0) {
      for (int c : cohort) {
        const double weight =
            static_cast<double>(clients[c].size()) /
            static_cast<double>(cohort_volume);
        for (double& v : updates[c]) v *= weight;
      }

      std::vector<double> averaged(global_params.size(), 0.0);
      {
        CTFL_SPAN("ctfl.train.aggregate");
        if (config.secure_aggregation) {
          const SecureAggregator aggregator(
              static_cast<int>(clients.size()), global_params.size(),
              config.secure_session_seed + round);
          std::vector<std::vector<double>> masked;
          masked.reserve(cohort.size());
          for (int c : cohort) {
            CTFL_ASSIGN_OR_RETURN(
                std::vector<double> masked_update,
                aggregator.MaskCohort(c, cohort, updates[c]));
            masked.push_back(std::move(masked_update));
          }
          CTFL_ASSIGN_OR_RETURN(averaged,
                                aggregator.AggregateCohort(cohort, masked));
        } else {
          for (int c : cohort) {
            const std::vector<double>& update = updates[c];
            for (size_t k = 0; k < averaged.size(); ++k) {
              averaged[k] += update[k];
            }
          }
        }
      }
      global.SetParameters(averaged);
      global.ProjectWeights();
    } else if (config.verbose || degraded) {
      // Every data-bearing client was lost: the round degrades to a
      // no-op instead of dividing by zero or aborting — the model simply
      // carries over to the next round.
      CTFL_LOG(Warning) << "round " << round
                        << " fully degraded: no surviving uploads, "
                           "global model unchanged";
    }

    round_counter.Add(1);
    if (round_dropped > 0) dropped_counter.Add(round_dropped);
    if (round_retries > 0) retry_counter.Add(round_retries);
    if (degraded) degraded_counter.Add(1);
    const double round_seconds = round_watch.LapSeconds();
    const double round_cpu_seconds = round_cpu_watch.LapSeconds();
    round_hist.Observe(round_seconds * 1e6);
    if (stats != nullptr || config.round_observer || config.model_observer) {
      telemetry::RoundTelemetry rt;
      rt.round = round;
      rt.seconds = round_seconds;
      rt.cpu_seconds = round_cpu_seconds;
      // Guard the mean: a round where every client is empty (or
      // quarantined) must not divide by zero.
      rt.mean_local_loss =
          clients_trained > 0 ? loss_sum / clients_trained : 0.0;
      rt.clients_trained = clients_trained;
      rt.clients_dropped = round_dropped;
      rt.retries = round_retries;
      rt.degraded = degraded;
      if (config.round_observer) config.round_observer(rt);
      if (config.model_observer) {
        // 1-based: round r's committed model (unchanged when the round
        // fully degraded).
        config.model_observer(round + 1, global, rt);
      }
      if (stats != nullptr) {
        stats->rounds.push_back(rt);
        stats->clients_dropped += round_dropped;
        stats->retries += round_retries;
        if (degraded) ++stats->rounds_degraded;
      }
    }
    if (config.verbose) {
      CTFL_LOG(Info) << "fedavg round " << round << " done ("
                     << clients_trained << " trained, " << round_dropped
                     << " dropped, " << round_retries << " retries)";
    }
  }
  return Status::OK();
}

Result<LogicalNet> TrainFederated(SchemaPtr schema,
                                  const LogicalNetConfig& net_config,
                                  const std::vector<Dataset>& clients,
                                  const FedAvgConfig& config,
                                  FedAvgStats* stats) {
  LogicalNet net(std::move(schema), net_config);
  CTFL_RETURN_IF_ERROR(RunFedAvg(net, clients, config, stats));
  return net;
}

LogicalNet TrainCentral(SchemaPtr schema, const LogicalNetConfig& net_config,
                        const Dataset& data, const TrainConfig& config,
                        TrainReport* report) {
  LogicalNet net(std::move(schema), net_config);
  TrainReport local_report = TrainGrafted(net, data, config);
  if (report != nullptr) *report = std::move(local_report);
  return net;
}

}  // namespace ctfl
