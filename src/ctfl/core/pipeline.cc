#include "ctfl/core/pipeline.h"

#include <cstring>
#include <fstream>

#include "ctfl/data/schema.h"
#include "ctfl/nn/matrix.h"
#include "ctfl/store/snapshot.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/build_info.h"
#include "ctfl/util/cpu_time.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/stopwatch.h"

namespace ctfl {

namespace {

/// Applies the master num_threads knob to every per-component setting
/// (see CtflConfig::num_threads).
CtflConfig ApplyThreadOverrides(const CtflConfig& in) {
  CtflConfig out = in;
  if (in.num_threads >= 0) {
    out.fedavg.num_threads = in.num_threads;
    out.fedavg.local.num_threads = in.num_threads;
    out.central.num_threads = in.num_threads;
    out.tracer.num_threads = in.num_threads;
    SetMatrixParallelism(in.num_threads);
  }
  return out;
}

/// SplitMix64 finalizer (same mixer failure.cc uses): full-avalanche,
/// cheap, and stable across platforms.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive accumulator for config digests: every knob is mixed
/// as a 64-bit word, doubles by bit pattern (so a digest changes iff a
/// knob's exact value changes).
class Digest {
 public:
  void Mix(uint64_t v) { state_ = Mix64(state_ ^ v); }
  void MixInt(int64_t v) { Mix(static_cast<uint64_t>(v)); }
  void MixBool(bool v) { Mix(v ? 1u : 2u); }
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0xc7f1d16e57ab1e5ULL;  // arbitrary non-zero seed
};

void MixTrainConfig(const TrainConfig& c, Digest& d) {
  d.MixInt(c.epochs);
  d.MixInt(c.batch_size);
  d.MixDouble(c.learning_rate);
  d.MixBool(c.use_adam);
  d.MixDouble(c.sgd_momentum);
  d.Mix(c.seed);
}

}  // namespace

Result<CtflReport> RunCtfl(const Federation& federation, const Dataset& test,
                           const CtflConfig& raw_config) {
  CTFL_SPAN("ctfl.run");
  if (federation.empty()) {
    return Status::InvalidArgument("RunCtfl requires a non-empty federation");
  }
  const CtflConfig config = ApplyThreadOverrides(raw_config);
  const SchemaPtr schema = federation[0].data.schema();
  // Context-switch counters are monotone process totals; snapshot them
  // here so the report carries this run's delta, not the process's
  // lifetime churn.
  const ResourceUsage usage_start = CurrentResourceUsage();

  // ---- Phase 1: train the single global rule-based model. ---------------
  telemetry::Span train_span("ctfl.train");
  Stopwatch train_watch;
  // Process-CPU clock: phases fan work out to ThreadPool workers, whose
  // CPU time a thread clock would miss. cpu/wall ratio ~ effective
  // parallelism; cpu <= wall * threads always holds (pinned by tests).
  ProcessCpuStopwatch phase_cpu_watch;
  FedAvgStats fedavg_stats;
  TrainReport central_report;
  Result<LogicalNet> trained = [&]() -> Result<LogicalNet> {
    if (config.federated) {
      std::vector<Dataset> clients;
      clients.reserve(federation.size());
      for (const Participant& p : federation) clients.push_back(p.data);
      return TrainFederated(schema, config.net, clients, config.fedavg,
                            &fedavg_stats);
    }
    return TrainCentral(schema, config.net, MergeFederation(federation),
                        config.central, &central_report);
  }();
  // Per-client faults degrade rounds instead of failing the run, so an
  // error here means the configuration itself is malformed (e.g. a
  // negative retry budget). Propagate it — callers surface the Status
  // instead of the process dying mid-settlement.
  CTFL_RETURN_IF_ERROR(trained.status());
  LogicalNet model = std::move(trained).value();
  const double train_seconds = train_watch.ElapsedSeconds();
  const double train_cpu_seconds = phase_cpu_watch.LapSeconds();
  train_span.End();

  CtflReport report(std::move(model));
  report.train_seconds = train_seconds;

  telemetry::RunTelemetry& run = report.telemetry;
  run.train_seconds = train_seconds;
  run.train_cpu_seconds = train_cpu_seconds;
  if (config.federated) {
    run.rounds = std::move(fedavg_stats.rounds);
    run.grafting_steps = fedavg_stats.grafting_steps;
    run.clients_dropped = fedavg_stats.clients_dropped;
    run.retries = fedavg_stats.retries;
    run.rounds_degraded = fedavg_stats.rounds_degraded;
  } else {
    run.epochs = std::move(central_report.epoch_stats);
    run.grafting_steps = central_report.steps;
  }

  // Rule-extraction stats: how much of the trained model survives the
  // tracer's weight threshold (kept vs pruned rule coordinates).
  run.rules_total = report.model.num_rules();
  for (int j = 0; j < report.model.num_rules(); ++j) {
    if (report.model.RuleWeight(j) >= config.tracer.min_rule_weight) {
      ++run.rules_kept;
    } else {
      ++run.rules_pruned;
    }
  }

  // ---- Phase 2: participants compute their activation uploads. ----------
  // The same block pass predicts every training record, which gives the
  // deployed model's training accuracy on either training path.
  std::vector<std::vector<Bitset>> uploads;
  {
    CTFL_SPAN("ctfl.upload");
    phase_cpu_watch.Restart();
    telemetry::ScopedTimer upload_timer(&run.upload_seconds);
    uploads = ContributionTracer::ComputeUploadActivations(
        report.model, federation, config.tracer, &run.train_accuracy);
  }
  run.upload_cpu_seconds = phase_cpu_watch.LapSeconds();

  // ---- Phase 3: single tracing pass. ------------------------------------
  phase_cpu_watch.Restart();
  Stopwatch trace_watch;
  const ContributionTracer tracer(&report.model, &federation, config.tracer,
                                  std::move(uploads));
  report.trace = tracer.Trace(test);
  run.trace_seconds = trace_watch.ElapsedSeconds();
  run.trace_cpu_seconds = phase_cpu_watch.LapSeconds();
  report.trace_seconds = run.trace_seconds;
  report.test_accuracy = report.trace.global_accuracy;
  run.trace_keys = report.trace.num_keys;
  run.tau_w_checks = report.trace.tau_w_checks;
  run.related_records = report.trace.related_records;
  run.records_scanned = report.trace.records_scanned;
  run.blocks_pruned = report.trace.blocks_pruned;
  run.exact_fallbacks = report.trace.exact_fallbacks;
  run.uncovered_tests = static_cast<int64_t>(report.trace.uncovered_tests);

  // ---- Phase 4: micro + macro credit allocation. ------------------------
  {
    CTFL_SPAN("ctfl.allocate");
    phase_cpu_watch.Restart();
    telemetry::ScopedTimer allocate_timer(&run.allocate_seconds);
    report.micro_scores = MicroAllocation(report.trace);
    report.macro_scores = MacroAllocation(report.trace, config.macro_delta);
  }
  run.allocate_cpu_seconds = phase_cpu_watch.LapSeconds();

  // ---- Optional phase 5: persist the contribution bundle. ---------------
  if (!config.bundle_out.empty()) {
    CTFL_SPAN("ctfl.bundle.emit");
    store::SnapshotOptions snapshot;
    snapshot.tau_w = config.tracer.tau_w;
    snapshot.macro_delta = config.macro_delta;
    snapshot.min_rule_weight = config.tracer.min_rule_weight;
    snapshot.dp_epsilon = config.tracer.dp_epsilon;
    // A persisted run names the fault schedule it trained under: scores
    // from a degraded run are only reproducible given (seed, plan).
    snapshot.failure_plan_fingerprint =
        config.federated ? config.fedavg.failure.Fingerprint() : 0;
    snapshot.micro_scores = report.micro_scores;
    snapshot.macro_scores = report.macro_scores;
    snapshot.global_accuracy = report.trace.global_accuracy;
    snapshot.matched_accuracy = report.trace.matched_accuracy;
    Result<store::BundleContent> content = store::BuildBundleContent(
        report.model, federation, test, tracer.train_activations(), snapshot);
    report.bundle_status =
        content.ok() ? store::WriteBundle(*content, config.bundle_out)
                     : content.status();
    if (report.bundle_status.ok()) {
      std::ifstream in(config.bundle_out,
                       std::ios::binary | std::ios::ate);
      if (in) report.bundle_bytes = static_cast<size_t>(in.tellg());
    } else {
      CTFL_LOG(Warning) << "bundle emit to '" << config.bundle_out
                        << "' failed: " << report.bundle_status.message();
    }
  }

  const ResourceUsage usage_end = CurrentResourceUsage();
  run.max_rss_kb = usage_end.max_rss_kb;  // high-water mark, not a delta
  run.voluntary_ctx_switches =
      usage_end.voluntary_ctx_switches - usage_start.voluntary_ctx_switches;
  run.involuntary_ctx_switches = usage_end.involuntary_ctx_switches -
                                 usage_start.involuntary_ctx_switches;

  static telemetry::Counter& run_counter =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.runs");
  run_counter.Add(1);
  return report;
}

uint64_t CtflConfigDigest(const CtflConfig& config) {
  Digest d;
  d.MixInt(config.net.tau_d);
  d.MixInt(static_cast<int64_t>(config.net.logic_layers.size()));
  for (const auto& [conj, disj] : config.net.logic_layers) {
    d.MixInt(conj);
    d.MixInt(disj);
  }
  d.MixInt(config.net.fan_in);
  d.MixBool(config.net.input_skip);
  d.MixDouble(config.net.linear_init_scale);
  d.Mix(config.net.seed);

  d.MixBool(config.federated);
  if (config.federated) {
    d.MixInt(config.fedavg.rounds);
    d.MixInt(config.fedavg.local_epochs);
    MixTrainConfig(config.fedavg.local, d);
    d.MixBool(config.fedavg.secure_aggregation);
    d.Mix(config.fedavg.secure_session_seed);
    d.MixInt(config.fedavg.retry_budget);
  } else {
    MixTrainConfig(config.central, d);
  }

  d.MixDouble(config.tracer.tau_w);
  d.MixBool(config.tracer.use_dedup);
  d.MixBool(true);  // the retired use_max_miner knob's former default
  d.MixDouble(config.tracer.grouping.min_support_fraction);
  d.MixInt(static_cast<int64_t>(config.tracer.grouping.min_instances));
  d.MixDouble(config.tracer.grouping.max_item_support_fraction);
  d.MixInt(static_cast<int64_t>(config.tracer.grouping.max_expansions));
  d.MixInt(static_cast<int64_t>(config.tracer.grouping.max_itemsets));
  d.MixDouble(config.tracer.min_rule_weight);
  d.MixDouble(config.tracer.dp_epsilon);
  d.Mix(config.tracer.dp_seed);
  // tracer.kernel, tracer.isa, and tracer.trace_threads are deliberately
  // NOT mixed: like the thread knobs they select a bit-identical
  // implementation (DESIGN.md §10), so legacy/blocked runs at any SIMD
  // tier and trace thread count share one digest — the replay harness's
  // kernel-flip and isa-flip cells rely on this.
  d.MixInt(config.macro_delta);
  return d.value();
}

telemetry::RunReport MakeRunReport(const CtflReport& report,
                                   const CtflConfig& config,
                                   const Federation& federation,
                                   const Dataset& test) {
  telemetry::RunReport out;
  out.config_digest = CtflConfigDigest(config);
  out.schema_fingerprint =
      federation.empty() ? 0
                         : SchemaFingerprint(*federation[0].data.schema());
  out.failure_plan_fingerprint =
      config.federated ? config.fedavg.failure.Fingerprint() : 0;

  out.federated = config.federated;
  out.num_participants = static_cast<int>(federation.size());
  for (const Participant& p : federation) {
    out.train_records += static_cast<int64_t>(p.data.size());
  }
  out.test_records = static_cast<int64_t>(test.size());
  out.test_accuracy = report.test_accuracy;
  out.build_type = BuildTypeName();
  out.trace_isa = TraceIsaName(config.tracer.isa);
  out.telemetry = report.telemetry;

  // The run fingerprint folds identity and data shape into one word: two
  // runs with equal fingerprints replay each other's scores bit-for-bit.
  Digest run_id;
  run_id.Mix(out.config_digest);
  run_id.Mix(out.schema_fingerprint);
  run_id.Mix(out.failure_plan_fingerprint);
  run_id.MixInt(out.num_participants);
  for (const Participant& p : federation) {
    run_id.MixInt(static_cast<int64_t>(p.data.size()));
  }
  run_id.MixInt(out.test_records);
  out.run_fingerprint = run_id.value();
  return out;
}

CtflScheme::CtflScheme(const Federation* federation, const Dataset* test,
                       CtflConfig config, Variant variant)
    : federation_(federation),
      test_(test),
      config_(std::move(config)),
      variant_(variant) {
  CTFL_CHECK(federation_ != nullptr && test_ != nullptr);
}

Result<ContributionResult> CtflScheme::Compute(CoalitionUtility& utility) {
  if (utility.num_participants() !=
      static_cast<int>(federation_->size())) {
    return Status::InvalidArgument(
        "utility participant count does not match the federation");
  }
  Stopwatch watch;
  CTFL_ASSIGN_OR_RETURN(CtflReport report,
                        RunCtfl(*federation_, *test_, config_));
  report_ = std::make_shared<CtflReport>(std::move(report));
  ContributionResult result;
  result.scheme = name();
  result.scores = variant_ == Variant::kMicro ? report_->micro_scores
                                              : report_->macro_scores;
  result.coalitions_evaluated = 1;  // the single global model
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace ctfl
