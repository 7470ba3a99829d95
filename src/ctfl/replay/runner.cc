#include "ctfl/replay/runner.h"

#include <climits>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/fl/partition.h"
#include "ctfl/serve/client.h"
#include "ctfl/serve/server.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/stream/emitter.h"
#include "ctfl/stream/scorer.h"
#include "ctfl/util/rng.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace replay {
namespace {

/// Content digest of a CSV input: what a recording pins and a replay
/// checks.
Result<uint64_t> CsvDigest(const std::string& path, const char* role) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(
        StrFormat("cannot open %s CSV %s", role, path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return HashBytes(bytes);
}

/// Loads a recorded CSV input, failing loudly when the file's bytes no
/// longer match the recorded digest — an edited input would otherwise
/// "reproduce" noise instead of the run.
Result<Dataset> LoadPinnedCsv(const std::string& path, uint64_t want_digest,
                              const SchemaPtr& schema, const char* role) {
  if (want_digest != 0) {
    CTFL_ASSIGN_OR_RETURN(const uint64_t got, CsvDigest(path, role));
    if (got != want_digest) {
      return Status::FailedPrecondition(StrFormat(
          "%s CSV %s changed since recording (digest %016llx, recorded "
          "%016llx) — replaying it would not reproduce the run",
          role, path.c_str(), static_cast<unsigned long long>(got),
          static_cast<unsigned long long>(want_digest)));
    }
  }
  return LoadCsvDataset(path, schema);
}

/// Sizes the partitioner and the logic layers abort on (the spec stores
/// them unsigned; the config takes them as int).
Status CheckSize(const char* name, uint32_t value) {
  if (value >= 1 && value <= static_cast<uint32_t>(INT_MAX)) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrFormat("%s must be in [1, %d], got %u", name, INT_MAX, value));
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Hex64(uint64_t v) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(v));
}

// QueryService is neither copyable nor movable (atomics, const config),
// so it travels behind a unique_ptr here.
Result<std::unique_ptr<serve::QueryService>> OpenService(
    const std::string& bundle_path) {
  CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                        store::QueryEngine::Open(bundle_path));
  return std::make_unique<serve::QueryService>(std::move(engine));
}

/// Replays one decoded event against `service`, digest-checking the
/// response when the op is digest-stable. Shared by all three legs.
void CheckEvent(const QueryEvent& event, const serve::Response& response,
                size_t index, EventReplayResult* result) {
  if (!OpIsDigestStable(event.op)) return;
  ++result->digest_checked;
  const uint64_t got = ResponseDigest(response);
  if (got == event.response_digest) return;
  ++result->mismatches;
  if (result->detail.empty()) {
    result->detail = StrFormat(
        "event %zu (%s): response digest %s, recorded %s", index,
        serve::OpName(static_cast<serve::Op>(event.op)), Hex64(got).c_str(),
        Hex64(event.response_digest).c_str());
  }
}

}  // namespace

std::string RenderScoreTable(const Federation& federation,
                             const std::vector<double>& micro,
                             const std::vector<double>& macro) {
  std::string out = "participant  records    micro   macro\n";
  for (const Participant& p : federation) {
    const size_t id = static_cast<size_t>(p.id);
    out += StrFormat("%-11s %8zu   %.17g   %.17g\n", p.name.c_str(),
                     p.data.size(), id < micro.size() ? micro[id] : 0.0,
                     id < macro.size() ? macro[id] : 0.0);
  }
  return out;
}

RunOutcome MakeRunOutcome(const CtflReport& report, const CtflConfig& config,
                          const Federation& federation, const Dataset& test) {
  const telemetry::RunReport run_report =
      MakeRunReport(report, config, federation, test);
  RunOutcome outcome;
  outcome.config_digest = run_report.config_digest;
  outcome.schema_fingerprint = run_report.schema_fingerprint;
  outcome.failure_plan_fingerprint = run_report.failure_plan_fingerprint;
  outcome.run_fingerprint = run_report.run_fingerprint;
  outcome.test_accuracy = report.test_accuracy;
  outcome.micro = report.micro_scores;
  outcome.macro = report.macro_scores;
  outcome.score_digest = ScoreDigest(outcome.micro, outcome.macro);
  outcome.render_digest = HashBytes(
      RenderScoreTable(federation, outcome.micro, outcome.macro));
  return outcome;
}

std::map<std::string, std::string> RunSpecFlags(
    DataSource source, std::map<std::string, std::string> tool_flags) {
  std::map<std::string, std::string> flags = {
      {"dataset", "adult"},    {"participants", "3"},  {"alpha", "0.8"},
      {"skew-label", "false"}, {"seed", "42"},         {"federated", "false"},
      {"rounds", "5"},         {"local-epochs", "2"},  {"epochs", "20"},
      {"width", "96"},         {"tau-w", "0.9"},       {"secure-agg", "false"},
      {"failure-plan", ""},    {"retry-budget", "1"},  {"num-threads", "-1"}};
  if (source == DataSource::kCsv) {
    flags.insert({{"train", ""}, {"test", ""}});
  } else {
    flags.insert({{"train-n", "600"},
                  {"train-seed", "7"},
                  {"test-n", "150"},
                  {"test-seed", "8"}});
  }
  for (auto& [name, value] : tool_flags) flags[name] = std::move(value);
  return flags;
}

Result<RunSpec> ParseRunSpecFlags(const FlagParser& flags, DataSource source) {
  const auto get_u64 = [&flags](const char* name) -> Result<uint64_t> {
    CTFL_ASSIGN_OR_RETURN(const int value, flags.GetInt(name));
    return static_cast<uint64_t>(value);
  };
  const auto get_u32 = [&flags](const char* name) -> Result<uint32_t> {
    CTFL_ASSIGN_OR_RETURN(const int value, flags.GetInt(name));
    return static_cast<uint32_t>(value);
  };
  RunSpec spec;
  spec.source = source;
  spec.dataset = flags.GetString("dataset");
  if (source == DataSource::kCsv) {
    spec.train_path = flags.GetString("train");
    spec.test_path = flags.GetString("test");
    if (spec.train_path.empty() || spec.test_path.empty()) {
      return Status::InvalidArgument("--train and --test are required");
    }
    CTFL_ASSIGN_OR_RETURN(spec.train_csv_digest,
                          CsvDigest(spec.train_path, "train"));
    CTFL_ASSIGN_OR_RETURN(spec.test_csv_digest,
                          CsvDigest(spec.test_path, "test"));
  } else {
    CTFL_ASSIGN_OR_RETURN(spec.train_n, get_u64("train-n"));
    CTFL_ASSIGN_OR_RETURN(spec.train_seed, get_u64("train-seed"));
    CTFL_ASSIGN_OR_RETURN(spec.test_n, get_u64("test-n"));
    CTFL_ASSIGN_OR_RETURN(spec.test_seed, get_u64("test-seed"));
  }
  CTFL_ASSIGN_OR_RETURN(spec.participants, get_u32("participants"));
  CTFL_ASSIGN_OR_RETURN(spec.alpha, flags.GetDouble("alpha"));
  spec.skew_label = flags.GetBool("skew-label");
  CTFL_ASSIGN_OR_RETURN(spec.seed, get_u64("seed"));
  spec.federated = flags.GetBool("federated");
  CTFL_ASSIGN_OR_RETURN(spec.rounds, get_u32("rounds"));
  CTFL_ASSIGN_OR_RETURN(spec.local_epochs, get_u32("local-epochs"));
  CTFL_ASSIGN_OR_RETURN(spec.epochs, get_u32("epochs"));
  CTFL_ASSIGN_OR_RETURN(spec.width, get_u32("width"));
  CTFL_ASSIGN_OR_RETURN(spec.tau_w, flags.GetDouble("tau-w"));
  spec.secure_agg = flags.GetBool("secure-agg");
  spec.failure_plan = flags.GetString("failure-plan");
  CTFL_ASSIGN_OR_RETURN(const int retry_budget, flags.GetInt("retry-budget"));
  if (retry_budget < 0) {
    return Status::InvalidArgument("--retry-budget must be >= 0");
  }
  spec.retry_budget = static_cast<uint32_t>(retry_budget);
  CTFL_ASSIGN_OR_RETURN(spec.num_threads, flags.GetInt("num-threads"));
  return spec;
}

Result<RunInputs> BuildRunInputs(const RunSpec& spec,
                                 const RunOverrides& overrides) {
  CTFL_RETURN_IF_ERROR(CheckSize("participants", spec.participants));
  CTFL_RETURN_IF_ERROR(CheckSize("width", spec.width));
  CTFL_ASSIGN_OR_RETURN(
      FailurePlan failure_plan,
      FailurePlan::Parse(overrides.clean ? "" : spec.failure_plan));
  if (!spec.federated && (!failure_plan.empty() || spec.secure_agg)) {
    return Status::InvalidArgument(
        "--failure-plan/--secure-agg require --federated "
        "(faults and masking happen in FedAvg rounds)");
  }

  // Rebuild the inputs exactly as recorded.
  Result<Dataset> train = Status::Internal("unreachable");
  Result<Dataset> test = Status::Internal("unreachable");
  if (spec.source == DataSource::kGenerate) {
    train = MakeBenchmark(spec.dataset, spec.train_n, spec.train_seed);
    test = MakeBenchmark(spec.dataset, spec.test_n, spec.test_seed);
  } else {
    CTFL_ASSIGN_OR_RETURN(SchemaPtr schema, BenchmarkSchema(spec.dataset));
    train = LoadPinnedCsv(spec.train_path, spec.train_csv_digest, schema,
                          "train");
    test = LoadPinnedCsv(spec.test_path, spec.test_csv_digest, schema,
                         "test");
  }
  if (!train.ok()) return train.status();
  if (!test.ok()) return test.status();

  Rng prng(spec.seed);
  const int participants = static_cast<int>(spec.participants);
  Federation federation = MakeFederation(
      spec.skew_label
          ? PartitionSkewLabel(*train, participants, spec.alpha, prng)
          : PartitionSkewSample(*train, participants, spec.alpha, prng));

  CtflConfig config;
  config.federated = spec.federated;
  config.central.epochs = static_cast<int>(spec.epochs);
  config.central.learning_rate = 0.05;
  config.fedavg.rounds = static_cast<int>(spec.rounds);
  config.fedavg.local_epochs = static_cast<int>(spec.local_epochs);
  config.fedavg.local.learning_rate = 0.05;
  config.fedavg.local.seed = spec.seed;
  config.fedavg.secure_aggregation = spec.secure_agg;
  config.fedavg.failure = failure_plan;
  config.fedavg.retry_budget = static_cast<int>(spec.retry_budget);
  const int width = static_cast<int>(spec.width);
  config.net.logic_layers = {{width / 2, width - width / 2}};
  config.net.seed = spec.seed;
  config.tracer.tau_w = spec.tau_w;
  if (overrides.trace_isa >= 0) {
    config.tracer.isa = static_cast<TraceIsa>(overrides.trace_isa);
  }
  if (overrides.trace_threads != RunOverrides::kKeep) {
    config.tracer.trace_threads =
        static_cast<int>(overrides.trace_threads);
  }
  config.num_threads = overrides.num_threads == RunOverrides::kKeep
                           ? static_cast<int>(spec.num_threads)
                           : static_cast<int>(overrides.num_threads);
  config.bundle_out = overrides.bundle_out;
  return RunInputs{std::move(config), std::move(federation),
                   std::move(*test)};
}

Result<RunArtifacts> ExecuteRunSpec(const RunSpec& spec,
                                    const RunOverrides& overrides) {
  CTFL_ASSIGN_OR_RETURN(RunInputs run, BuildRunInputs(spec, overrides));

  // The streamed cell instruments the run with a delta-log emitter; it
  // observes every round through the model_observer hook and must not
  // perturb the outcome (asserted by the caller via CompareOutcomes).
  std::unique_ptr<stream::DeltaLogEmitter> emitter;
  if (!overrides.delta_log_out.empty()) {
    if (!run.config.federated) {
      return Status::InvalidArgument(
          "delta_log_out requires a federated spec (deltas are per FedAvg "
          "round)");
    }
    emitter = std::make_unique<stream::DeltaLogEmitter>(
        overrides.delta_log_out, &run.federation, &run.test, &run.config);
    emitter->Attach(&run.config.fedavg);
  }

  CTFL_ASSIGN_OR_RETURN(const CtflReport report,
                        RunCtfl(run.federation, run.test, run.config));
  if (!run.config.bundle_out.empty()) {
    CTFL_RETURN_IF_ERROR(report.bundle_status);
  }
  if (emitter != nullptr) {
    CTFL_RETURN_IF_ERROR(emitter->status());
  }

  RunOutcome outcome =
      MakeRunOutcome(report, run.config, run.federation, run.test);
  std::string table =
      RenderScoreTable(run.federation, outcome.micro, outcome.macro);
  return RunArtifacts{std::move(run), std::move(outcome), std::move(table),
                      report.bundle_bytes};
}

Status CompareOutcomes(const RunOutcome& want, const RunOutcome& got) {
  struct Field {
    const char* name;
    uint64_t want;
    uint64_t got;
  };
  const Field fields[] = {
      {"config_digest", want.config_digest, got.config_digest},
      {"schema_fingerprint", want.schema_fingerprint,
       got.schema_fingerprint},
      {"failure_plan_fingerprint", want.failure_plan_fingerprint,
       got.failure_plan_fingerprint},
      {"run_fingerprint", want.run_fingerprint, got.run_fingerprint},
      {"test_accuracy_bits", DoubleBits(want.test_accuracy),
       DoubleBits(got.test_accuracy)},
      {"score_digest", want.score_digest, got.score_digest},
      {"render_digest", want.render_digest, got.render_digest},
  };
  for (const Field& f : fields) {
    if (f.want != f.got) {
      return Status::FailedPrecondition(
          StrFormat("%s diverged: recorded %s, replayed %s", f.name,
                    Hex64(f.want).c_str(), Hex64(f.got).c_str()));
    }
  }
  return Status::OK();
}

Result<EventReplayResult> ReplayEventsThroughService(
    const std::vector<QueryEvent>& events, serve::QueryService& service) {
  EventReplayResult result;
  for (size_t i = 0; i < events.size(); ++i) {
    const QueryEvent& event = events[i];
    if (event.op == static_cast<uint8_t>(serve::Op::kShutdown)) continue;
    CTFL_ASSIGN_OR_RETURN(serve::Request request,
                          serve::DecodeRequest(event.request));
    const serve::Response response = service.Handle(request);
    ++result.replayed;
    CheckEvent(event, response, i, &result);
  }
  return result;
}

Result<EventReplayResult> ReplayEventsOneShot(
    const std::vector<QueryEvent>& events, const std::string& bundle_path) {
  EventReplayResult result;
  for (size_t i = 0; i < events.size(); ++i) {
    const QueryEvent& event = events[i];
    if (event.op == static_cast<uint8_t>(serve::Op::kShutdown)) continue;
    CTFL_ASSIGN_OR_RETURN(serve::Request request,
                          serve::DecodeRequest(event.request));
    // Fresh engine + service per event: the cold-path leg.
    CTFL_ASSIGN_OR_RETURN(std::unique_ptr<serve::QueryService> service,
                          OpenService(bundle_path));
    const serve::Response response = service->Handle(request);
    ++result.replayed;
    CheckEvent(event, response, i, &result);
  }
  return result;
}

Result<EventReplayResult> ReplayEventsServed(
    const std::vector<QueryEvent>& events, const std::string& bundle_path,
    const std::string& socket_path) {
  if (!serve::ServerSupported()) {
    return Status::Unimplemented("socket server not supported here");
  }
  CTFL_ASSIGN_OR_RETURN(std::unique_ptr<serve::QueryService> service,
                        OpenService(bundle_path));
  serve::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.num_threads = 2;
  serve::Server server(service.get(), std::move(server_config));
  CTFL_RETURN_IF_ERROR(server.Start());

  Result<EventReplayResult> out = [&]() -> Result<EventReplayResult> {
    CTFL_ASSIGN_OR_RETURN(serve::Client client,
                          serve::Client::ConnectUnix(socket_path));
    EventReplayResult result;
    for (size_t i = 0; i < events.size(); ++i) {
      const QueryEvent& event = events[i];
      if (event.op == static_cast<uint8_t>(serve::Op::kShutdown)) continue;
      CTFL_ASSIGN_OR_RETURN(serve::Request request,
                            serve::DecodeRequest(event.request));
      CTFL_ASSIGN_OR_RETURN(serve::Response response, client.Call(request));
      ++result.replayed;
      CheckEvent(event, response, i, &result);
    }
    return result;
  }();

  server.Shutdown();
  server.Wait();
  return out;
}

std::vector<MatrixCell> GenerateMatrix(const ReplayFile& file) {
  std::vector<MatrixCell> cells;
  const bool has_run = file.has_spec && file.has_outcome;
  if (has_run) {
    cells.push_back({"base_replay",
                     "re-run the recorded spec; bitwise outcome match",
                     MatrixCell::Kind::kRun,
                     {}});
    // Force the scalar trace ISA (and the best available tier when the
    // host has one): the SIMD dispatch knob must not move a single bit,
    // fingerprint included.
    MatrixCell isa_scalar;
    isa_scalar.name = "isa_scalar";
    isa_scalar.description =
        "re-run with the scalar trace ISA; bitwise outcome match";
    isa_scalar.overrides.trace_isa =
        static_cast<int>(TraceIsa::kScalar);
    cells.push_back(std::move(isa_scalar));
    const TraceIsa best = BestAvailableTraceIsa();
    if (best != TraceIsa::kScalar) {
      MatrixCell isa_best;
      isa_best.name = StrFormat("isa_%s", TraceIsaName(best));
      isa_best.description = StrFormat(
          "re-run with the %s trace ISA (sharded x8); bitwise match",
          TraceIsaName(best));
      isa_best.overrides.trace_isa = static_cast<int>(best);
      isa_best.overrides.trace_threads = 8;
      cells.push_back(std::move(isa_best));
    }
    for (int threads : {1, 2, 8}) {
      MatrixCell cell;
      cell.name = StrFormat("threads_%d", threads);
      cell.description =
          StrFormat("re-run with num_threads=%d; bitwise match", threads);
      cell.overrides.num_threads = threads;
      cells.push_back(std::move(cell));
    }
    if (!file.spec.failure_plan.empty()) {
      MatrixCell clean;
      clean.name = "clean";
      clean.description =
          "re-run without the fault plan; run fingerprint must diverge";
      clean.kind = MatrixCell::Kind::kRunDiverge;
      clean.overrides.clean = true;
      cells.push_back(std::move(clean));
    }
    if (file.spec.federated) {
      MatrixCell streamed;
      streamed.name = "streamed";
      streamed.description =
          "re-run emitting a delta log; folded scores must bit-match";
      streamed.kind = MatrixCell::Kind::kRunStreamed;
      cells.push_back(std::move(streamed));
    }
  }
  if (has_run && !file.events.empty()) {
    cells.push_back({"queries_batch",
                     "replay the query stream against one warm service",
                     MatrixCell::Kind::kQueryBatch,
                     {}});
    cells.push_back({"queries_oneshot",
                     "replay the query stream, fresh service per request",
                     MatrixCell::Kind::kQueryOneShot,
                     {}});
    if (serve::ServerSupported()) {
      cells.push_back({"queries_served",
                       "replay the query stream through a socket server",
                       MatrixCell::Kind::kQueryServed,
                       {}});
    }
  }
  return cells;
}

Result<std::vector<CellResult>> RunMatrix(const ReplayFile& file,
                                          const MatrixOptions& options) {
  std::vector<MatrixCell> cells = GenerateMatrix(file);
  if (cells.empty()) {
    return Status::InvalidArgument(
        "replay file has no spec+outcome to build a matrix from");
  }

  const bool need_bundle = [&] {
    for (const MatrixCell& cell : cells) {
      if (cell.kind == MatrixCell::Kind::kQueryBatch ||
          cell.kind == MatrixCell::Kind::kQueryOneShot ||
          cell.kind == MatrixCell::Kind::kQueryServed) {
        if (options.only_cell.empty() || options.only_cell == cell.name) {
          return true;
        }
      }
    }
    return false;
  }();
  const std::string bundle_path =
      options.scratch_dir + "/replay_base.ctflb";
  const std::string socket_path = options.scratch_dir + "/replay.sock";

  // The base spec runs once; its bundle feeds every query cell.
  bool base_ran = false;
  RunOutcome base_outcome;
  Status base_status = Status::OK();
  auto ensure_base = [&]() -> Status {
    if (base_ran) return base_status;
    base_ran = true;
    RunOverrides overrides;
    if (need_bundle) overrides.bundle_out = bundle_path;
    Result<RunArtifacts> artifacts = ExecuteRunSpec(file.spec, overrides);
    if (!artifacts.ok()) {
      base_status = artifacts.status();
    } else {
      base_outcome = artifacts->outcome;
    }
    return base_status;
  };

  std::vector<CellResult> results;
  for (const MatrixCell& cell : cells) {
    if (!options.only_cell.empty() && cell.name != options.only_cell) {
      continue;
    }
    if (cell.kind == MatrixCell::Kind::kQueryServed &&
        !options.include_served) {
      continue;
    }
    CellResult result;
    result.name = cell.name;
    switch (cell.kind) {
      case MatrixCell::Kind::kRun: {
        Status ok;
        if (cell.name == "base_replay") {
          ok = ensure_base();
          if (ok.ok()) ok = CompareOutcomes(file.outcome, base_outcome);
        } else {
          Result<RunArtifacts> artifacts =
              ExecuteRunSpec(file.spec, cell.overrides);
          ok = artifacts.ok()
                   ? CompareOutcomes(file.outcome, artifacts->outcome)
                   : artifacts.status();
        }
        result.pass = ok.ok();
        result.detail =
            ok.ok() ? StrFormat(
                          "bit-identical (fingerprint %s)",
                          Hex64(file.outcome.run_fingerprint).c_str())
                    : ok.ToString();
        break;
      }
      case MatrixCell::Kind::kRunDiverge: {
        Result<RunArtifacts> artifacts =
            ExecuteRunSpec(file.spec, cell.overrides);
        if (!artifacts.ok()) {
          result.detail = artifacts.status().ToString();
          break;
        }
        const RunOutcome& got = artifacts->outcome;
        if (got.failure_plan_fingerprint != 0) {
          result.detail = "clean replay still reports a fault plan";
        } else if (got.run_fingerprint == file.outcome.run_fingerprint) {
          result.detail = StrFormat(
              "run fingerprint %s did not diverge without the fault plan",
              Hex64(got.run_fingerprint).c_str());
        } else {
          result.pass = true;
          result.detail = StrFormat(
              "fingerprint diverged as required (%s -> %s)",
              Hex64(file.outcome.run_fingerprint).c_str(),
              Hex64(got.run_fingerprint).c_str());
        }
        break;
      }
      case MatrixCell::Kind::kRunStreamed: {
        RunOverrides overrides = cell.overrides;
        overrides.delta_log_out =
            options.scratch_dir + "/replay_stream.ctfld";
        Result<RunArtifacts> artifacts =
            ExecuteRunSpec(file.spec, overrides);
        if (!artifacts.ok()) {
          result.detail = artifacts.status().ToString();
          break;
        }
        // The emitter is a pure observer: the instrumented run must still
        // reproduce the recorded outcome bit-for-bit.
        Status same = CompareOutcomes(file.outcome, artifacts->outcome);
        if (!same.ok()) {
          result.detail = "instrumented run diverged: " + same.ToString();
          break;
        }
        Result<stream::DeltaLogContents> log =
            stream::ReadDeltaLog(overrides.delta_log_out);
        if (!log.ok()) {
          result.detail = log.status().ToString();
          break;
        }
        Result<stream::StreamingScorer> scorer =
            stream::StreamingScorer::FromHeader(log->header);
        if (!scorer.ok()) {
          result.detail = scorer.status().ToString();
          break;
        }
        Result<uint64_t> folded = scorer->FoldAll(*log);
        if (!folded.ok()) {
          result.detail = folded.status().ToString();
          break;
        }
        // %.17g round-trips doubles exactly, so byte-equal tables mean
        // bit-identical score vectors (the streamed differential cell).
        const std::string streamed_table = RenderScoreTable(
            artifacts->federation, scorer->micro_scores(),
            scorer->macro_scores());
        if (streamed_table != artifacts->score_table) {
          result.detail =
              "streamed scores diverged from the one-shot score table";
          break;
        }
        result.pass = true;
        result.detail = StrFormat(
            "%llu rounds folded, streamed scores bit-identical",
            static_cast<unsigned long long>(*folded));
        break;
      }
      case MatrixCell::Kind::kQueryBatch:
      case MatrixCell::Kind::kQueryOneShot:
      case MatrixCell::Kind::kQueryServed: {
        Status base = ensure_base();
        if (!base.ok()) {
          result.detail = "base run failed: " + base.ToString();
          break;
        }
        Result<EventReplayResult> replay =
            Status::Internal("unreachable");
        if (cell.kind == MatrixCell::Kind::kQueryBatch) {
          Result<std::unique_ptr<serve::QueryService>> service =
              OpenService(bundle_path);
          replay = service.ok() ? ReplayEventsThroughService(file.events,
                                                             **service)
                                : Result<EventReplayResult>(
                                      service.status());
        } else if (cell.kind == MatrixCell::Kind::kQueryOneShot) {
          replay = ReplayEventsOneShot(file.events, bundle_path);
        } else {
          replay =
              ReplayEventsServed(file.events, bundle_path, socket_path);
        }
        if (!replay.ok()) {
          result.detail = replay.status().ToString();
          break;
        }
        result.pass = replay->ok();
        result.detail =
            replay->ok()
                ? StrFormat("%zu events replayed, %zu digests matched",
                            replay->replayed, replay->digest_checked)
                : replay->detail;
        break;
      }
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace replay
}  // namespace ctfl
