// ctfl — command-line front end for the CTFL library.
//
// Subcommands:
//   generate  --dataset NAME --out FILE [--n N] [--seed S]
//       Writes a benchmark dataset (tic-tac-toe exact, or the synthetic
//       adult/bank/dota2 equivalents) as CSV.
//   train     --dataset NAME --data FILE --model OUT [--epochs E] [--lr R]
//       Trains a rule-based model on a CSV dataset and saves it.
//   rules     --dataset NAME --model FILE [--out FILE] [--min-weight W]
//       Prints (or writes) the model's extracted symbolic rules.
//   score     --dataset NAME --train FILE --test FILE [--participants K]
//             [--tau-w T] [--skew-label] [--seed S] [--num-threads N]
//             [--federated] [--rounds R] [--local-epochs E] [--secure-agg]
//             [--failure-plan SPEC] [--retry-budget B] [--bundle-out FILE]
//             [--delta-log-out FILE]
//             [--trace-isa auto|scalar|avx2|avx512|neon] [--trace-threads N]
//             [--telemetry-out FILE.json] [--telemetry-summary]
//             [--metrics-out FILE.jsonl] [--report-out FILE.json]
//       Partitions the training CSV into K participants, runs the full
//       CTFL pipeline, and prints micro/macro scores + a loss report.
//       --federated trains the global model with FedAvg rounds across
//       the participants (the paper's setting) instead of centrally;
//       --secure-agg masks every upload with cohort-aware pairwise
//       secure aggregation. --failure-plan injects a deterministic fault
//       schedule into the rounds (DESIGN.md §11), e.g.
//       "dropout=0.2,straggler=0.1,corrupt=0.05,mismatch=0.05,seed=17";
//       bad uploads are retried up to --retry-budget times, then
//       quarantined — the run completes over the surviving cohorts and
//       is a pure function of (seed, plan). --bundle-out additionally
//       persists a contribution bundle for later `query` runs.
//       --delta-log-out (federated only) appends one per-round delta
//       record to FILE as the run trains, so `query --delta-log` or
//       `ctfl_serve --delta-log` can fold live scores in O(delta) per
//       round without retraining (DESIGN.md §15).
//       --num-threads steers training, tracing, and the matrix kernels
//       together (0 = all cores, 1 = serial; scores are bit-identical
//       either way). Eq. 4 matching runs on the word-parallel blocked
//       kernel with early-exit pruning: --trace-isa pins its SIMD tier
//       (`auto` = best the CPU supports) and --trace-threads shards its
//       block sweep; both are execution
//       context, never semantics — every tier at every thread count
//       produces bit-identical scores. --telemetry-out writes a Chrome
//       trace (open in chrome://tracing or ui.perfetto.dev);
//       --telemetry-summary prints per-span and per-phase cost tables.
//       --metrics-out appends one JSONL metrics snapshot per federated
//       round (plus a final one), turning round health into a time
//       series; --report-out writes the structured RunReport JSON
//       (fingerprints, per-phase wall/CPU breakdown, kernel counters —
//       DESIGN.md §12).
//   snapshot  --dataset NAME --train FILE --test FILE --bundle-out FILE
//             [score flags]
//       Same pipeline as `score`, but the bundle is the point: trains
//       once, traces once, and persists model + rules + activation
//       uploads + test forwards so every later query needs no retraining
//       and no retracing.
//   query     --bundle FILE [--tau-w T] [--delta D] [--top-k K]
//             [--instances FILE.csv] [--max-records N] [--requests-file FILE]
//             [--trace-isa auto|scalar|avx2|avx512|neon] [--trace-threads N]
//             [--delta-log FILE] [--telemetry-summary]
//       Serves a persisted bundle: re-evaluates micro/macro scores under
//       the requested (or originating) parameters — bit-identical to the
//       originating run at its own parameters — prints per-participant
//       interpretability summaries, and looks up Eq. 4 related records
//       for new instances from --instances.
//       --requests-file switches to batch mode: every line of FILE is one
//       request (`evaluate [tau-w=V] [delta=D] [top-k=K]`,
//       `related-test INDEX`, or `related F1,F2,...,LABEL`; blank lines
//       and `#` comments skipped), all answered from the single bundle
//       load — the resident-service workflow without a server. Every
//       request goes through an in-process serve::QueryService, the
//       handler `ctfl_serve` runs; --record taps it as `ctfl_serve
//       --record` does.
//       --delta-log switches to streaming mode: folds every round of the
//       delta log into live scores (O(delta) per round), prints the score
//       table, and exits nonzero unless the folded scores bit-match the
//       bundle snapshot.
//
// The --dataset flag names the schema (the federation's agreed feature
// space); CSV files must match it. `query` needs no --dataset: the
// bundle carries its schema.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>

#include "ctfl/core/incentive.h"
#include "ctfl/core/interpret.h"
#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/data/split.h"
#include "ctfl/nn/serialize.h"
#include "ctfl/replay/recorder.h"
#include "ctfl/replay/runner.h"
#include "ctfl/serve/render.h"
#include "ctfl/serve/service.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/stream/emitter.h"
#include "ctfl/stream/scorer.h"
#include "ctfl/telemetry/exposition.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/flags.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status RunGenerate(int argc, const char* const* argv) {
  FlagParser flags({{"dataset", "adult"},
                    {"out", ""},
                    {"n", "1000"},
                    {"seed", "42"}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("out").empty()) {
    return Status::InvalidArgument("--out is required");
  }
  CTFL_ASSIGN_OR_RETURN(int n, flags.GetInt("n"));
  CTFL_ASSIGN_OR_RETURN(int seed, flags.GetInt("seed"));
  CTFL_ASSIGN_OR_RETURN(
      Dataset dataset,
      MakeBenchmark(flags.GetString("dataset"), n, seed));
  CTFL_RETURN_IF_ERROR(SaveCsvDataset(flags.GetString("out"), dataset));
  std::printf("wrote %zu instances to %s\n", dataset.size(),
              flags.GetString("out").c_str());
  return Status::OK();
}

Status RunTrain(int argc, const char* const* argv) {
  FlagParser flags({{"dataset", "adult"},
                    {"data", ""},
                    {"model", ""},
                    {"epochs", "30"},
                    {"lr", "0.05"},
                    {"width", "96"},
                    {"num-threads", "0"},
                    {"seed", "42"}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("data").empty() || flags.GetString("model").empty()) {
    return Status::InvalidArgument("--data and --model are required");
  }
  CTFL_ASSIGN_OR_RETURN(SchemaPtr schema,
                        BenchmarkSchema(flags.GetString("dataset")));
  CTFL_ASSIGN_OR_RETURN(Dataset data,
                        LoadCsvDataset(flags.GetString("data"), schema));
  CTFL_ASSIGN_OR_RETURN(int epochs, flags.GetInt("epochs"));
  CTFL_ASSIGN_OR_RETURN(double lr, flags.GetDouble("lr"));
  CTFL_ASSIGN_OR_RETURN(int width, flags.GetInt("width"));
  CTFL_ASSIGN_OR_RETURN(int num_threads, flags.GetInt("num-threads"));
  CTFL_ASSIGN_OR_RETURN(int seed, flags.GetInt("seed"));
  // The logic layer needs at least one node (a CHECK in its constructor).
  if (width < 1) {
    return Status::InvalidArgument(
        StrFormat("--width must be >= 1, got %d", width));
  }

  LogicalNetConfig net_config;
  net_config.logic_layers = {{width / 2, width - width / 2}};
  net_config.seed = seed;
  TrainConfig train_config;
  train_config.epochs = epochs;
  train_config.learning_rate = lr;
  train_config.num_threads = num_threads;
  LogicalNet net(schema, net_config);
  TrainGrafted(net, data, train_config);
  CTFL_RETURN_IF_ERROR(SaveLogicalNet(net, flags.GetString("model")));
  std::printf("trained on %zu instances (train accuracy %.3f); model -> %s\n",
              data.size(), net.Accuracy(data),
              flags.GetString("model").c_str());
  return Status::OK();
}

Status RunRules(int argc, const char* const* argv) {
  FlagParser flags({{"dataset", "adult"},
                    {"model", ""},
                    {"out", ""},
                    {"min-weight", "0.01"}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("model").empty()) {
    return Status::InvalidArgument("--model is required");
  }
  CTFL_ASSIGN_OR_RETURN(SchemaPtr schema,
                        BenchmarkSchema(flags.GetString("dataset")));
  CTFL_ASSIGN_OR_RETURN(LogicalNet net,
                        LoadLogicalNet(schema, flags.GetString("model")));
  CTFL_ASSIGN_OR_RETURN(double min_weight, flags.GetDouble("min-weight"));
  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    CTFL_RETURN_IF_ERROR(ExportRulesText(net, out, min_weight));
    std::printf("rules -> %s\n", out.c_str());
    return Status::OK();
  }
  const ExtractionResult extraction = ExtractRules(net);
  for (const ExtractedRule& er : extraction.rules) {
    if (er.weight < min_weight) continue;
    std::printf("r%d%s w=%.4f : %s\n", er.coordinate,
                er.support_class == 1 ? "+" : "-", er.weight,
                er.rule.ToString(*schema).c_str());
  }
  return Status::OK();
}

// Shared by `score` (bundle optional) and `snapshot` (bundle required).
Status RunScore(int argc, const char* const* argv, bool snapshot_mode) {
  FlagParser flags(replay::RunSpecFlags(replay::DataSource::kCsv,
                                        {{"participants", "4"},
                                         {"budget", "0"},
                                         {"trace-isa", "auto"},
                                         {"trace-threads", "1"},
                                         {"bundle-out", ""},
                                         {"delta-log-out", ""},
                                         {"telemetry-out", ""},
                                         {"telemetry-summary", "false"},
                                         {"metrics-out", ""},
                                         {"report-out", ""},
                                         {"record", ""}}));
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (snapshot_mode && flags.GetString("bundle-out").empty()) {
    return Status::InvalidArgument("snapshot requires --bundle-out");
  }
  CTFL_ASSIGN_OR_RETURN(const replay::RunSpec spec,
                        replay::ParseRunSpecFlags(flags,
                                                  replay::DataSource::kCsv));
  CTFL_ASSIGN_OR_RETURN(double budget, flags.GetDouble("budget"));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  replay::RunOverrides outputs;
  CTFL_ASSIGN_OR_RETURN(outputs.trace_threads, flags.GetInt("trace-threads"));
  outputs.bundle_out = flags.GetString("bundle-out");
  const std::string telemetry_out = flags.GetString("telemetry-out");
  const bool telemetry_summary = flags.GetBool("telemetry-summary");
  if (!telemetry_out.empty() || telemetry_summary) {
    telemetry::SetTracingEnabled(true);
  }
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string report_out = flags.GetString("report-out");

  CTFL_ASSIGN_OR_RETURN(replay::RunInputs run,
                        replay::BuildRunInputs(spec, outputs));
  const Federation& fed = run.federation;
  const Dataset& test = run.test;
  CtflConfig& config = run.config;

  // --metrics-out: one metrics snapshot per completed federated round
  // (plus a closing "final" line after the run), so round health is a
  // time series rather than an end-of-run total. Installed before the
  // delta-log emitter chains onto the same hook, so it runs first.
  std::unique_ptr<telemetry::MetricsSnapshotWriter> metrics_writer;
  if (!metrics_out.empty()) {
    metrics_writer =
        std::make_unique<telemetry::MetricsSnapshotWriter>(metrics_out);
    CTFL_RETURN_IF_ERROR(metrics_writer->status());
    config.fedavg.model_observer =
        [&metrics_writer](int round, const LogicalNet&,
                          const telemetry::RoundTelemetry& rt) {
          if (round == 0) return;  // the baseline, before any round
          const Status status = metrics_writer->WriteRound(rt);
          if (!status.ok()) {
            CTFL_LOG(Warning)
                << "metrics snapshot failed: " << status.message();
          }
        };
  }

  // --delta-log-out: observe every committed FedAvg round and append one
  // RoundDelta per round (plus the round-0 header) so a streaming scorer
  // can fold the run's scores incrementally (DESIGN.md §15).
  const std::string delta_log_out = flags.GetString("delta-log-out");
  std::unique_ptr<stream::DeltaLogEmitter> emitter;
  if (!delta_log_out.empty()) {
    if (!config.federated) {
      return Status::InvalidArgument(
          "--delta-log-out requires --federated (deltas are per FedAvg "
          "round)");
    }
    emitter = std::make_unique<stream::DeltaLogEmitter>(delta_log_out, &fed,
                                                        &test, &config);
    emitter->Attach(&config.fedavg);
  }

  CTFL_ASSIGN_OR_RETURN(const CtflReport report, RunCtfl(fed, test, config));
  if (emitter != nullptr) {
    CTFL_RETURN_IF_ERROR(emitter->status());
    std::printf("delta log (%u rounds, %llu bytes) -> %s\n",
                emitter->rounds_emitted(),
                static_cast<unsigned long long>(emitter->bytes_written()),
                delta_log_out.c_str());
  }
  if (metrics_writer != nullptr) {
    CTFL_RETURN_IF_ERROR(metrics_writer->WriteLabeled("final"));
    std::printf("metrics snapshots (%d) -> %s\n",
                metrics_writer->snapshots_written(), metrics_out.c_str());
  }
  if (!report_out.empty()) {
    const telemetry::RunReport run_report =
        MakeRunReport(report, config, fed, test);
    CTFL_RETURN_IF_ERROR(telemetry::WriteRunReport(run_report, report_out));
    std::printf("run report (fingerprint 0x%016llx, %s build) -> %s\n",
                static_cast<unsigned long long>(run_report.run_fingerprint),
                run_report.build_type.c_str(), report_out.c_str());
  }
  if (!config.bundle_out.empty()) {
    CTFL_RETURN_IF_ERROR(report.bundle_status);
    std::printf("bundle (%zu bytes) -> %s\n", report.bundle_bytes,
                config.bundle_out.c_str());
  }
  // --record: persist the run spec (CSV paths pinned by content digest)
  // + bit-exact outcome as a replay file (DESIGN.md §14); `ctfl_replay
  // replay --file F` re-runs it and asserts bit-identity.
  const std::string record_out = flags.GetString("record");
  if (!record_out.empty()) {
    replay::ReplayRecorder recorder;
    recorder.CaptureRun(spec,
                        replay::MakeRunOutcome(report, config, fed, test));
    CTFL_RETURN_IF_ERROR(recorder.WriteTo(record_out));
    std::printf("replay file -> %s\n", record_out.c_str());
  }

  std::printf("model accuracy: %.4f  (train %.1fs, trace %.2fs)\n\n",
              report.test_accuracy, report.train_seconds,
              report.trace_seconds);
  std::printf("participant  records    micro     macro\n");
  for (const Participant& p : fed) {
    std::fputs(serve::RenderScoreRow(p.name, p.data.size(),
                                     report.micro_scores[p.id],
                                     report.macro_scores[p.id])
                   .c_str(),
               stdout);
  }
  std::printf("\nloss-tracing report:\n%s",
              FormatLossReport(AnalyzeLoss(report.trace)).c_str());
  if (budget > 0.0) {
    IncentiveConfig incentive;
    incentive.budget = budget;
    std::printf("\npayouts (budget %.2f, macro scheme):\n%s", budget,
                FormatPayouts(ComputePayouts(report, incentive)).c_str());
  }
  if (telemetry_summary) {
    std::printf("\nrun telemetry:\n%s", report.telemetry.Summary().c_str());
    std::printf("\nspan summary:\n%s",
                telemetry::TraceSummaryTable().c_str());
    std::printf("\nmetrics:\n%s",
                telemetry::MetricsRegistry::Global().SummaryTable().c_str());
  }
  if (!telemetry_out.empty()) {
    CTFL_RETURN_IF_ERROR(telemetry::WriteChromeTrace(telemetry_out));
    std::printf("\nchrome trace (%zu events) -> %s\n",
                telemetry::TraceEventCount(), telemetry_out.c_str());
  }
  return Status::OK();
}

/// Prints a QueryService answer the way `query` always has: the
/// evaluation block, or one related-record lookup numbered `index`.
void PrintResponse(const serve::Response& response, size_t index,
                   const std::vector<std::string>& participant_names) {
  const std::string text =
      response.op == serve::Op::kEvaluate
          ? serve::RenderEvaluation(response.report, response.origin_tau_w,
                                    response.origin_delta,
                                    response.origin_micro,
                                    response.origin_macro)
          : serve::RenderRelatedLookup(index, response.related,
                                       participant_names);
  std::fputs(text.c_str(), stdout);
}

// Batch mode of `query`: one request per line, every line answered by the
// one in-process service (no per-request bundle reads). Returns on the
// first malformed or failed line, naming it.
Status RunRequestsFile(serve::QueryService& service, const std::string& path,
                       const store::EvalOptions& eval_defaults,
                       const store::QueryOptions& query_defaults) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open requests file " + path);
  const store::BundleContent& bundle = service.engine().bundle();
  std::string line;
  size_t lineno = 0;
  size_t handled = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t space = trimmed.find(' ');
    const std::string_view command = trimmed.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view()
                                        : Trim(trimmed.substr(space + 1));
    std::printf("request %zu: %.*s\n", handled,
                static_cast<int>(trimmed.size()), trimmed.data());
    serve::Request request;
    size_t index = handled;
    if (command == "evaluate") {
      request.op = serve::Op::kEvaluate;
      store::EvalOptions& eval = request.evaluate.options;
      eval = eval_defaults;
      for (const std::string& token :
           Split(std::string(rest), ' ')) {
        if (token.empty()) continue;
        const size_t eq = token.find('=');
        const std::string key = token.substr(0, eq);
        if (eq == std::string::npos) {
          return Status::InvalidArgument(StrFormat(
              "%s:%zu: evaluate option '%s' is not key=value",
              path.c_str(), lineno, token.c_str()));
        }
        const std::string value = token.substr(eq + 1);
        if (key == "tau-w") {
          CTFL_ASSIGN_OR_RETURN(eval.tau_w, ParseDouble(value));
        } else if (key == "delta") {
          CTFL_ASSIGN_OR_RETURN(eval.delta, ParseInt(value));
        } else if (key == "top-k") {
          CTFL_ASSIGN_OR_RETURN(eval.top_k, ParseInt(value));
        } else {
          return Status::InvalidArgument(
              StrFormat("%s:%zu: unknown evaluate option '%s'",
                        path.c_str(), lineno, key.c_str()));
        }
      }
    } else if (command == "related-test") {
      CTFL_ASSIGN_OR_RETURN(int test_index, ParseInt(std::string(rest)));
      if (test_index < 0) {
        return Status::OutOfRange(StrFormat("%s:%zu: test index %d is negative",
                                            path.c_str(), lineno, test_index));
      }
      request.op = serve::Op::kRelatedForTest;
      request.related_for_test.test_index = static_cast<uint64_t>(test_index);
      request.related_for_test.options = query_defaults;
      index = static_cast<size_t>(test_index);
    } else if (command == "related") {
      std::vector<std::string> fields = Split(std::string(rest), ',');
      for (std::string& field : fields) field = std::string(Trim(field));
      auto parsed = ParseCsvInstanceRow(bundle.schema, fields);
      if (!parsed.ok()) {
        return Status::InvalidArgument(StrFormat(
            "%s:%zu: %s", path.c_str(), lineno,
            parsed.status().message().c_str()));
      }
      request.op = serve::Op::kRelated;
      request.related.instance = std::move(*parsed);
      request.related.options = query_defaults;
    } else {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: unknown request '%.*s' (expected evaluate, "
                    "related-test, or related)",
                    path.c_str(), lineno, static_cast<int>(command.size()),
                    command.data()));
    }
    const serve::Response response = service.Handle(request);
    if (!response.status.ok()) {
      return Status(response.status.code(),
                    StrFormat("%s:%zu: %s", path.c_str(), lineno,
                              response.status.message().c_str()));
    }
    PrintResponse(response, index, bundle.meta.participant_names);
    ++handled;
  }
  std::printf("\nanswered %zu requests from %s (single bundle load)\n",
              handled, path.c_str());
  return Status::OK();
}

Status RunQuery(int argc, const char* const* argv) {
  FlagParser flags({{"bundle", ""},
                    {"tau-w", "-1"},
                    {"delta", "-1"},
                    {"top-k", "5"},
                    {"instances", ""},
                    {"max-records", "3"},
                    {"trace-isa", "auto"},
                    {"trace-threads", "1"},
                    {"requests-file", ""},
                    {"delta-log", ""},
                    {"telemetry-summary", "false"},
                    {"record", ""}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  const std::string bundle_path = flags.GetString("bundle");
  if (bundle_path.empty()) {
    return Status::InvalidArgument("--bundle is required");
  }
  CTFL_ASSIGN_OR_RETURN(double tau_w, flags.GetDouble("tau-w"));
  CTFL_ASSIGN_OR_RETURN(int delta, flags.GetInt("delta"));
  CTFL_ASSIGN_OR_RETURN(int top_k, flags.GetInt("top-k"));
  CTFL_ASSIGN_OR_RETURN(int max_records, flags.GetInt("max-records"));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  CTFL_ASSIGN_OR_RETURN(int trace_threads, flags.GetInt("trace-threads"));
  const bool telemetry_summary = flags.GetBool("telemetry-summary");
  if (telemetry_summary) telemetry::SetTracingEnabled(true);

  // --delta-log: streaming mode. Attach to the bundle's delta chain, fold
  // every round, print the live score table (same rows as `score`), and
  // fail unless the folded scores bit-match the snapshot.
  const std::string delta_log = flags.GetString("delta-log");
  if (!delta_log.empty()) {
    CTFL_ASSIGN_OR_RETURN(const store::BundleContent content,
                          store::ReadBundle(bundle_path));
    stream::ScorerOptions scorer_options;
    scorer_options.trace_threads = trace_threads;
    CTFL_ASSIGN_OR_RETURN(const stream::AttachedDeltaLog attached,
                          stream::AttachedDeltaLog::Attach(
                              content.meta, delta_log, scorer_options));
    const stream::StreamingScorer& scorer = attached.scorer();
    std::printf("delta log %s: %llu rounds folded\n\n", delta_log.c_str(),
                static_cast<unsigned long long>(attached.rounds_folded()));
    std::printf("participant  records    micro     macro\n");
    for (size_t p = 0; p < scorer.num_participants(); ++p) {
      std::fputs(serve::RenderScoreRow(scorer.participant_names()[p],
                                       scorer.participant_records(p),
                                       scorer.micro_scores()[p],
                                       scorer.macro_scores()[p])
                     .c_str(),
                 stdout);
    }
    CTFL_RETURN_IF_ERROR(attached.Verify());
    std::printf("\nstreamed scores bit-match the bundle snapshot\n");
    return Status::OK();
  }

  // Every request below goes through one in-process QueryService, the
  // handler `ctfl_serve` runs. --record taps it exactly as `ctfl_serve
  // --record` does; when the target file already holds a recorded run
  // (e.g. from `ctfl score --record`), the query stream appends to it.
  const std::string record_out = flags.GetString("record");
  Result<replay::ReplayFile> seed = replay::ReplayFile();
  if (!record_out.empty()) seed = replay::ReadReplayFile(record_out);
  replay::ReplayRecorder recorder(seed.ok() ? std::move(*seed)
                                            : replay::ReplayFile());
  serve::ServiceConfig service_config;
  service_config.trace_threads = trace_threads;
  if (!record_out.empty()) service_config.request_tap = recorder.Tap();
  CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                        store::QueryEngine::Open(bundle_path));
  serve::QueryService service(std::move(engine), service_config);
  const store::BundleContent& bundle = service.engine().bundle();
  std::printf(
      "bundle %s: %d participants, %d rules, %zu train records, %zu tests\n",
      bundle_path.c_str(), bundle.num_participants(), bundle.num_rules(),
      bundle.total_train_records(), bundle.tests.size());
  std::printf("origin run: tau_w=%.4f delta=%d accuracy=%.4f\n\n",
              service.engine().origin_tau_w(),
              service.engine().origin_delta(), bundle.meta.global_accuracy);

  store::EvalOptions eval;
  eval.tau_w = tau_w;
  eval.delta = delta;
  eval.top_k = top_k;
  store::QueryOptions options;
  options.tau_w = tau_w;
  options.max_records = static_cast<size_t>(std::max(0, max_records));

  const std::string requests_path = flags.GetString("requests-file");
  if (!requests_path.empty()) {
    CTFL_RETURN_IF_ERROR(
        RunRequestsFile(service, requests_path, eval, options));
  } else {
    serve::Request evaluate;
    evaluate.op = serve::Op::kEvaluate;
    evaluate.evaluate.options = eval;
    PrintResponse(service.Handle(evaluate), 0, bundle.meta.participant_names);

    const std::string instances_path = flags.GetString("instances");
    if (!instances_path.empty()) {
      CTFL_ASSIGN_OR_RETURN(Dataset instances,
                            LoadCsvDataset(instances_path, bundle.schema));
      std::fputs(serve::RenderRelatedHeader().c_str(), stdout);
      for (size_t i = 0; i < instances.size(); ++i) {
        serve::Request related;
        related.op = serve::Op::kRelated;
        related.related.instance = instances.instance(i);
        related.related.options = options;
        PrintResponse(service.Handle(related), i,
                      bundle.meta.participant_names);
      }
    }

    if (telemetry_summary) {
      std::printf("\nspan summary:\n%s",
                  telemetry::TraceSummaryTable().c_str());
      std::printf(
          "\nmetrics:\n%s",
          telemetry::MetricsRegistry::Global().SummaryTable().c_str());
    }
  }
  if (record_out.empty()) return Status::OK();
  CTFL_RETURN_IF_ERROR(recorder.WriteTo(record_out));
  std::printf("recorded %zu query events -> %s\n", recorder.num_events(),
              record_out.c_str());
  return Status::OK();
}

int Main(int argc, const char* const* argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ctfl <generate|train|rules|score|snapshot|query> "
                 "[flags]\n"
                 "run a subcommand with no flags to see its options\n");
    return 1;
  }
  const std::string command = argv[1];
  Status status;
  if (command == "generate") {
    status = RunGenerate(argc - 2, argv + 2);
  } else if (command == "train") {
    status = RunTrain(argc - 2, argv + 2);
  } else if (command == "rules") {
    status = RunRules(argc - 2, argv + 2);
  } else if (command == "score") {
    status = RunScore(argc - 2, argv + 2, /*snapshot_mode=*/false);
  } else if (command == "snapshot") {
    status = RunScore(argc - 2, argv + 2, /*snapshot_mode=*/true);
  } else if (command == "query") {
    status = RunQuery(argc - 2, argv + 2);
  } else {
    status = Status::InvalidArgument("unknown subcommand " + command);
  }
  return status.ok() ? 0 : Fail(status);
}

}  // namespace
}  // namespace ctfl

int main(int argc, char** argv) { return ctfl::Main(argc, argv); }
