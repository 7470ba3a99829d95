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
//             [--failure-plan SPEC] [--retry-budget B]
//             [--trace-kernel legacy|blocked] [--bundle-out FILE]
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
//       either way). --trace-kernel selects the Eq. 4 matching engine:
//       `blocked` (default) is the word-parallel blocked kernel with
//       early-exit pruning, `legacy` the scalar reference loop — results
//       are bit-identical either way. --trace-isa pins the blocked
//       kernel's SIMD tier (`auto` = best the CPU supports) and
//       --trace-threads shards its block sweep; both are execution
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
//       uploads + posting index so every later query needs no retraining
//       and no retracing.
//   query     --bundle FILE [--tau-w T] [--delta D] [--top-k K]
//             [--instances FILE.csv] [--max-records N] [--linear]
//             [--trace-kernel legacy|blocked] [--requests-file FILE]
//             [--trace-isa auto|scalar|avx2|avx512|neon] [--trace-threads N]
//             [--delta-log FILE] [--telemetry-summary]
//       Serves a persisted bundle: re-evaluates micro/macro scores under
//       the requested (or originating) parameters — bit-identical to the
//       originating run at its own parameters — prints per-participant
//       interpretability summaries, and looks up Eq. 4 related records
//       for new instances from --instances (posting-list prefiltered;
//       --linear forces the full class-bucket scan instead).
//       --requests-file switches to batch mode: every line of FILE is one
//       request (`evaluate [tau-w=V] [delta=D] [top-k=K]`,
//       `related-test INDEX`, or `related F1,F2,...,LABEL`; blank lines
//       and `#` comments skipped), all answered from the single bundle
//       load — the resident-service workflow without a server.
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
#include "ctfl/data/gen/tictactoe.h"
#include "ctfl/data/split.h"
#include "ctfl/fl/partition.h"
#include "ctfl/kernel/trace_kernel.h"
#include "ctfl/nn/serialize.h"
#include "ctfl/replay/recorder.h"
#include "ctfl/replay/runner.h"
#include "ctfl/serve/render.h"
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

Result<SchemaPtr> SchemaFor(const std::string& dataset) {
  if (dataset == "tic-tac-toe") return TicTacToeSchema();
  CTFL_ASSIGN_OR_RETURN(SyntheticSpec spec, BenchmarkSpec(dataset));
  return spec.schema;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Applies --trace-isa: "auto" keeps runtime dispatch (best available
/// tier), anything else pins the process-wide trace ISA.
Status ApplyTraceIsaFlag(const std::string& name) {
  if (name.empty() || name == "auto") return Status::OK();
  CTFL_ASSIGN_OR_RETURN(TraceIsa isa, ParseTraceIsa(name));
  return SetTraceIsa(isa);
}

/// Content digest of a recorded input file (pins the exact bytes a
/// replay must see; see replay::RunSpec).
Result<uint64_t> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path + " for digest");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return replay::HashBytes(bytes);
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
                        SchemaFor(flags.GetString("dataset")));
  CTFL_ASSIGN_OR_RETURN(Dataset data,
                        LoadCsvDataset(flags.GetString("data"), schema));
  CTFL_ASSIGN_OR_RETURN(int epochs, flags.GetInt("epochs"));
  CTFL_ASSIGN_OR_RETURN(double lr, flags.GetDouble("lr"));
  CTFL_ASSIGN_OR_RETURN(int width, flags.GetInt("width"));
  CTFL_ASSIGN_OR_RETURN(int num_threads, flags.GetInt("num-threads"));
  CTFL_ASSIGN_OR_RETURN(int seed, flags.GetInt("seed"));

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
                        SchemaFor(flags.GetString("dataset")));
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
  FlagParser flags({{"dataset", "adult"},
                    {"train", ""},
                    {"test", ""},
                    {"participants", "4"},
                    {"tau-w", "0.9"},
                    {"alpha", "0.8"},
                    {"skew-label", "false"},
                    {"epochs", "20"},
                    {"width", "96"},
                    {"budget", "0"},
                    {"num-threads", "-1"},
                    {"seed", "42"},
                    {"federated", "false"},
                    {"rounds", "5"},
                    {"local-epochs", "2"},
                    {"secure-agg", "false"},
                    {"failure-plan", ""},
                    {"retry-budget", "1"},
                    {"trace-kernel", "blocked"},
                    {"trace-isa", "auto"},
                    {"trace-threads", "1"},
                    {"bundle-out", ""},
                    {"delta-log-out", ""},
                    {"telemetry-out", ""},
                    {"telemetry-summary", "false"},
                    {"metrics-out", ""},
                    {"report-out", ""},
                    {"record", ""}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("train").empty() || flags.GetString("test").empty()) {
    return Status::InvalidArgument("--train and --test are required");
  }
  if (snapshot_mode && flags.GetString("bundle-out").empty()) {
    return Status::InvalidArgument("snapshot requires --bundle-out");
  }
  CTFL_ASSIGN_OR_RETURN(SchemaPtr schema,
                        SchemaFor(flags.GetString("dataset")));
  CTFL_ASSIGN_OR_RETURN(Dataset train,
                        LoadCsvDataset(flags.GetString("train"), schema));
  CTFL_ASSIGN_OR_RETURN(Dataset test,
                        LoadCsvDataset(flags.GetString("test"), schema));
  CTFL_ASSIGN_OR_RETURN(int participants, flags.GetInt("participants"));
  CTFL_ASSIGN_OR_RETURN(double tau_w, flags.GetDouble("tau-w"));
  CTFL_ASSIGN_OR_RETURN(double alpha, flags.GetDouble("alpha"));
  CTFL_ASSIGN_OR_RETURN(int epochs, flags.GetInt("epochs"));
  CTFL_ASSIGN_OR_RETURN(int width, flags.GetInt("width"));
  CTFL_ASSIGN_OR_RETURN(double budget, flags.GetDouble("budget"));
  CTFL_ASSIGN_OR_RETURN(int num_threads, flags.GetInt("num-threads"));
  CTFL_ASSIGN_OR_RETURN(int seed, flags.GetInt("seed"));
  CTFL_ASSIGN_OR_RETURN(int rounds, flags.GetInt("rounds"));
  CTFL_ASSIGN_OR_RETURN(int local_epochs, flags.GetInt("local-epochs"));
  CTFL_ASSIGN_OR_RETURN(int retry_budget, flags.GetInt("retry-budget"));
  if (retry_budget < 0) {
    return Status::InvalidArgument("--retry-budget must be >= 0");
  }
  CTFL_ASSIGN_OR_RETURN(FailurePlan failure_plan,
                        FailurePlan::Parse(flags.GetString("failure-plan")));
  CTFL_ASSIGN_OR_RETURN(TraceKernelKind trace_kernel,
                        ParseTraceKernelKind(flags.GetString("trace-kernel")));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  CTFL_ASSIGN_OR_RETURN(int trace_threads, flags.GetInt("trace-threads"));
  const std::string telemetry_out = flags.GetString("telemetry-out");
  const bool telemetry_summary = flags.GetBool("telemetry-summary");
  if (!telemetry_out.empty() || telemetry_summary) {
    telemetry::SetTracingEnabled(true);
  }
  const std::string metrics_out = flags.GetString("metrics-out");
  const std::string report_out = flags.GetString("report-out");

  Rng prng(seed);
  const Federation fed = MakeFederation(
      flags.GetBool("skew-label")
          ? PartitionSkewLabel(train, participants, alpha, prng)
          : PartitionSkewSample(train, participants, alpha, prng));

  CtflConfig config;
  config.federated = flags.GetBool("federated");
  config.central.epochs = epochs;
  config.central.learning_rate = 0.05;
  config.fedavg.rounds = rounds;
  config.fedavg.local_epochs = local_epochs;
  config.fedavg.local.learning_rate = 0.05;
  config.fedavg.local.seed = static_cast<uint64_t>(seed);
  config.fedavg.secure_aggregation = flags.GetBool("secure-agg");
  config.fedavg.failure = failure_plan;
  config.fedavg.retry_budget = retry_budget;
  if (!config.federated && (!failure_plan.empty() ||
                            config.fedavg.secure_aggregation)) {
    return Status::InvalidArgument(
        "--failure-plan/--secure-agg require --federated "
        "(faults and masking happen in FedAvg rounds)");
  }
  config.net.logic_layers = {{width / 2, width - width / 2}};
  config.net.seed = seed;
  config.tracer.tau_w = tau_w;
  config.tracer.kernel = trace_kernel;
  config.tracer.isa = CurrentTraceIsa();
  config.tracer.trace_threads = trace_threads;
  config.num_threads = num_threads;
  config.bundle_out = flags.GetString("bundle-out");

  // --metrics-out: one metrics snapshot per completed federated round
  // (plus a closing "final" line after the run), so round health is a
  // time series rather than an end-of-run total.
  std::unique_ptr<telemetry::MetricsSnapshotWriter> metrics_writer;
  if (!metrics_out.empty()) {
    metrics_writer =
        std::make_unique<telemetry::MetricsSnapshotWriter>(metrics_out);
    CTFL_RETURN_IF_ERROR(metrics_writer->status());
    config.fedavg.round_observer =
        [&metrics_writer](const telemetry::RoundTelemetry& round) {
          const Status status = metrics_writer->WriteRound(round);
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
    replay::RunSpec spec;
    spec.source = replay::DataSource::kCsv;
    spec.dataset = flags.GetString("dataset");
    spec.train_path = flags.GetString("train");
    spec.test_path = flags.GetString("test");
    CTFL_ASSIGN_OR_RETURN(spec.train_csv_digest,
                          FileDigest(spec.train_path));
    CTFL_ASSIGN_OR_RETURN(spec.test_csv_digest, FileDigest(spec.test_path));
    spec.participants = static_cast<uint32_t>(participants);
    spec.alpha = alpha;
    spec.skew_label = flags.GetBool("skew-label");
    spec.seed = static_cast<uint64_t>(seed);
    spec.federated = config.federated;
    spec.rounds = static_cast<uint32_t>(rounds);
    spec.local_epochs = static_cast<uint32_t>(local_epochs);
    spec.epochs = static_cast<uint32_t>(epochs);
    spec.width = static_cast<uint32_t>(width);
    spec.tau_w = tau_w;
    spec.secure_agg = config.fedavg.secure_aggregation;
    spec.failure_plan = flags.GetString("failure-plan");
    spec.retry_budget = static_cast<uint32_t>(retry_budget);
    spec.trace_kernel = static_cast<uint8_t>(trace_kernel);
    spec.num_threads = num_threads;
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
    std::printf("%-11s %8zu   %.4f    %.4f\n", p.name.c_str(),
                p.data.size(), report.micro_scores[p.id],
                report.macro_scores[p.id]);
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

// Batch mode of `query`: one request per line, every line answered from
// the already-loaded engine (no per-request bundle reads). Returns on the
// first malformed line, naming it.
Status RunRequestsFile(const store::QueryEngine& engine,
                       const std::string& path,
                       const store::EvalOptions& eval_defaults,
                       const store::QueryOptions& query_defaults,
                       replay::ReplayRecorder* recorder) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open requests file " + path);
  const store::BundleContent& bundle = engine.bundle();
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
    if (command == "evaluate") {
      store::EvalOptions eval = eval_defaults;
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
      const store::QueryReport report =
          recorder != nullptr ? recorder->RecordEvaluate(engine, eval)
                              : engine.Evaluate(eval);
      std::fputs(serve::RenderEvaluation(report, eval.kernel,
                                         engine.origin_tau_w(),
                                         engine.origin_delta(),
                                         bundle.meta.micro_scores,
                                         bundle.meta.macro_scores)
                     .c_str(),
                 stdout);
    } else if (command == "related-test") {
      CTFL_ASSIGN_OR_RETURN(int test_index, ParseInt(std::string(rest)));
      if (test_index < 0 ||
          static_cast<size_t>(test_index) >= bundle.tests.size()) {
        return Status::OutOfRange(
            StrFormat("%s:%zu: test index %d out of range (bundle has %zu "
                      "tests)",
                      path.c_str(), lineno, test_index,
                      bundle.tests.size()));
      }
      const store::RelatedResult related =
          recorder != nullptr
              ? recorder->RecordRelatedForTest(
                    engine, static_cast<uint64_t>(test_index),
                    query_defaults)
              : engine.RelatedForTest(static_cast<size_t>(test_index),
                                      query_defaults);
      std::fputs(serve::RenderRelatedLookup(
                     static_cast<size_t>(test_index), related,
                     bundle.meta.participant_names)
                     .c_str(),
                 stdout);
    } else if (command == "related") {
      std::vector<std::string> fields = Split(std::string(rest), ',');
      for (std::string& field : fields) field = std::string(Trim(field));
      auto parsed = ParseCsvInstanceRow(bundle.schema, fields);
      if (!parsed.ok()) {
        return Status::InvalidArgument(StrFormat(
            "%s:%zu: %s", path.c_str(), lineno,
            parsed.status().message().c_str()));
      }
      const store::RelatedResult related =
          recorder != nullptr
              ? recorder->RecordRelated(engine, *parsed, query_defaults)
              : engine.Related(*parsed, query_defaults);
      std::fputs(serve::RenderRelatedLookup(handled, related,
                                            bundle.meta.participant_names)
                     .c_str(),
                 stdout);
    } else {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: unknown request '%.*s' (expected evaluate, "
                    "related-test, or related)",
                    path.c_str(), lineno, static_cast<int>(command.size()),
                    command.data()));
    }
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
                    {"linear", "false"},
                    {"trace-kernel", "blocked"},
                    {"trace-isa", "auto"},
                    {"trace-threads", "1"},
                    {"requests-file", ""},
                    {"delta-log", ""},
                    {"telemetry-summary", "false"},
                    {"record", ""}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (flags.GetString("bundle").empty()) {
    return Status::InvalidArgument("--bundle is required");
  }
  CTFL_ASSIGN_OR_RETURN(double tau_w, flags.GetDouble("tau-w"));
  CTFL_ASSIGN_OR_RETURN(int delta, flags.GetInt("delta"));
  CTFL_ASSIGN_OR_RETURN(int top_k, flags.GetInt("top-k"));
  CTFL_ASSIGN_OR_RETURN(int max_records, flags.GetInt("max-records"));
  CTFL_ASSIGN_OR_RETURN(TraceKernelKind trace_kernel,
                        ParseTraceKernelKind(flags.GetString("trace-kernel")));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  CTFL_ASSIGN_OR_RETURN(int trace_threads, flags.GetInt("trace-threads"));
  const bool telemetry_summary = flags.GetBool("telemetry-summary");
  if (telemetry_summary) telemetry::SetTracingEnabled(true);

  // --delta-log: streaming mode. Open the bundle plus its delta chain,
  // fold every round, print the live score table (same line format as
  // `score`), and fail unless the folded scores bit-match the snapshot.
  const std::string delta_log = flags.GetString("delta-log");
  if (!delta_log.empty()) {
    stream::ScorerOptions scorer_options;
    scorer_options.kernel = trace_kernel;
    scorer_options.isa = CurrentTraceIsa();
    scorer_options.trace_threads = trace_threads;
    CTFL_ASSIGN_OR_RETURN(
        stream::StreamedEngine streamed,
        stream::StreamedEngine::Open(flags.GetString("bundle"), delta_log,
                                     scorer_options));
    const stream::StreamingScorer& scorer = streamed.scorer();
    std::printf("delta log %s: %llu rounds folded\n\n", delta_log.c_str(),
                static_cast<unsigned long long>(streamed.rounds_folded()));
    std::printf("participant  records    micro     macro\n");
    for (size_t p = 0; p < scorer.num_participants(); ++p) {
      std::printf("%-11s %8zu   %.4f    %.4f\n",
                  scorer.participant_names()[p].c_str(),
                  scorer.participant_records(p), scorer.micro_scores()[p],
                  scorer.macro_scores()[p]);
    }
    CTFL_RETURN_IF_ERROR(streamed.VerifyAgainstBundle());
    std::printf("\nstreamed scores bit-match the bundle snapshot\n");
    return Status::OK();
  }

  CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                        store::QueryEngine::Open(flags.GetString("bundle")));
  const store::BundleContent& bundle = engine.bundle();
  std::printf(
      "bundle %s: %d participants, %d rules, %zu train records, %zu tests\n",
      flags.GetString("bundle").c_str(), engine.num_participants(),
      bundle.num_rules(), bundle.total_train_records(),
      bundle.tests.size());
  std::printf("origin run: tau_w=%.4f delta=%d accuracy=%.4f\n\n",
              engine.origin_tau_w(), engine.origin_delta(),
              bundle.meta.global_accuracy);

  store::EvalOptions eval;
  eval.tau_w = tau_w;
  eval.delta = delta;
  eval.top_k = top_k;
  eval.kernel = trace_kernel;
  eval.isa = CurrentTraceIsa();
  eval.trace_threads = trace_threads;
  store::QueryOptions options;
  options.tau_w = tau_w;
  options.use_index = !flags.GetBool("linear");
  options.kernel = trace_kernel;
  options.isa = CurrentTraceIsa();
  options.trace_threads = trace_threads;
  options.max_records = static_cast<size_t>(std::max(0, max_records));

  // --record: capture every query issued below as a replay event. When
  // the target file already holds a recorded run (e.g. from `ctfl score
  // --record`), seed from it so the query stream appends to that run.
  const std::string record_out = flags.GetString("record");
  std::unique_ptr<replay::ReplayRecorder> recorder;
  if (!record_out.empty()) {
    Result<replay::ReplayFile> seed = replay::ReadReplayFile(record_out);
    recorder = seed.ok()
                   ? std::make_unique<replay::ReplayRecorder>(
                         std::move(*seed))
                   : std::make_unique<replay::ReplayRecorder>();
  }
  const auto finish_recording = [&]() -> Status {
    if (recorder == nullptr) return Status::OK();
    CTFL_RETURN_IF_ERROR(recorder->WriteTo(record_out));
    std::printf("recorded %zu query events -> %s\n",
                recorder->num_events(), record_out.c_str());
    return Status::OK();
  };

  const std::string requests_path = flags.GetString("requests-file");
  if (!requests_path.empty()) {
    CTFL_RETURN_IF_ERROR(RunRequestsFile(engine, requests_path, eval,
                                         options, recorder.get()));
    return finish_recording();
  }

  const store::QueryReport report =
      recorder != nullptr ? recorder->RecordEvaluate(engine, eval)
                          : engine.Evaluate(eval);
  std::fputs(serve::RenderEvaluation(report, eval.kernel,
                                     engine.origin_tau_w(),
                                     engine.origin_delta(),
                                     bundle.meta.micro_scores,
                                     bundle.meta.macro_scores)
                 .c_str(),
             stdout);

  const std::string instances_path = flags.GetString("instances");
  if (!instances_path.empty()) {
    CTFL_ASSIGN_OR_RETURN(Dataset instances,
                          LoadCsvDataset(instances_path, bundle.schema));
    std::fputs(serve::RenderRelatedHeader(options.use_index).c_str(),
               stdout);
    for (size_t i = 0; i < instances.size(); ++i) {
      const store::RelatedResult related =
          recorder != nullptr
              ? recorder->RecordRelated(engine, instances.instance(i),
                                        options)
              : engine.Related(instances.instance(i), options);
      std::fputs(serve::RenderRelatedLookup(i, related,
                                            bundle.meta.participant_names)
                     .c_str(),
                 stdout);
    }
  }

  if (telemetry_summary) {
    std::printf("\nspan summary:\n%s",
                telemetry::TraceSummaryTable().c_str());
    std::printf("\nmetrics:\n%s",
                telemetry::MetricsRegistry::Global().SummaryTable().c_str());
  }
  return finish_recording();
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
