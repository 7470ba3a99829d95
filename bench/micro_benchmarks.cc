// Engineering microbenchmarks + ablations of the design choices called
// out in DESIGN.md §6: tracing fast paths (dedup / threads),
// tau_w sensitivity, logic-layer width, and the substrate hot loops
// (bitset intersection, rule activation, grafted step, simplex).

#include <filesystem>
#include <fstream>

#include <benchmark/benchmark.h>

#include "common.h"
#include "ctfl/core/tracer.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/fedavg.h"
#include "ctfl/mining/apriori.h"
#include "ctfl/mining/max_miner.h"
#include "ctfl/nn/matrix.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/solver/simplex.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/store/snapshot.h"
#include "ctfl/stream/delta_log.h"
#include "ctfl/stream/emitter.h"
#include "ctfl/stream/scorer.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/build_info.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/logging.h"

namespace ctfl {
namespace {

// ---------------------------------------------------------------------------
// Telemetry overhead. BM_SpanDisabled is the contract check consumed by
// tools/check_telemetry_overhead.sh: a disabled span must cost a single
// relaxed atomic load + branch (single-digit nanoseconds), so telemetry
// can stay compiled into every hot path.
// ---------------------------------------------------------------------------
void BM_SpanDisabled(benchmark::State& state) {
  telemetry::SetTracingEnabled(false);
  for (auto _ : state) {
    CTFL_SPAN("bench.span.disabled");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  telemetry::SetTracingEnabled(true);
  telemetry::ClearTrace();
  for (auto _ : state) {
    CTFL_SPAN("bench.span.enabled");
    benchmark::ClobberMemory();
  }
  telemetry::SetTracingEnabled(false);
  telemetry::ClearTrace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterAdd(benchmark::State& state) {
  telemetry::Counter& counter =
      telemetry::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Histogram& hist =
      telemetry::MetricsRegistry::Global().GetHistogram("bench.hist");
  double v = 0.0;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1e6 ? v + 17.0 : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

// ---------------------------------------------------------------------------
// Shared fixture: a trained model + federation on scaled-down adult.
// ---------------------------------------------------------------------------
struct TracingFixture {
  bench::PreparedExperiment experiment;
  LogicalNet model;

  TracingFixture()
      : experiment(bench::Prepare("adult", 8, /*skew_label=*/true, 5)),
        model([this] {
          CtflConfig config = bench::MakeCtflConfig("adult", 5);
          config.central.epochs = 8;
          return TrainCentral(experiment.test.schema(), config.net,
                              MergeFederation(experiment.federation),
                              config.central);
        }()) {}
};

TracingFixture& Fixture() {
  static TracingFixture* fixture = new TracingFixture();
  return *fixture;
}

void BM_BitsetAndCount(benchmark::State& state) {
  const size_t bits = state.range(0);
  Rng rng(1);
  Bitset a(bits), b(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(0.3)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.AndCount(b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitsetAndCount)->Arg(128)->Arg(512)->Arg(2048);

void BM_RuleActivation(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  const Instance& inst = fx.experiment.test.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model.RuleActivations(inst));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuleActivation);

void BM_ModelPredict(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  const Instance& inst = fx.experiment.test.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.model.Predict(inst));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredict);

// Ablation: tracing fast paths. Arg encodes (dedup, threads).
void BM_TracingPaths(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  TracerConfig config;
  config.tau_w = 0.9;
  config.use_dedup = state.range(0) != 0;
  config.num_threads = static_cast<int>(state.range(1));
  const ContributionTracer tracer(&fx.model, &fx.experiment.federation,
                                  config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.Trace(fx.experiment.test));
  }
  state.SetItemsProcessed(state.iterations() * fx.experiment.test.size());
}
BENCHMARK(BM_TracingPaths)
    ->Args({0, 1})   // brute force
    ->Args({1, 1})   // + dedup
    ->Args({1, 0});  // + all cores

// ---------------------------------------------------------------------------
// Tracing kernel (DESIGN.md §10): legacy scalar tau_w loop vs the blocked
// word-parallel kernel on a tracing-heavy shape (>= 64 rules, >= 10k
// training records; dedup on, single thread) so the
// speedup is the kernel's alone. Both legs produce bit-identical
// TraceResults; the counters expose the pruning the blocked kernel does.
// Acceptance (ISSUE PR4): blocked >= 2x over legacy single-thread.
// Acceptance (ISSUE PR9): blocked (best SIMD dispatch) >= 2x over the
// forced-scalar blocked_scalar leg. RegisterIsaBenchVariants() adds one
// blocked_<isa> leg per tier the machine supports (bit-identical results,
// pure speed comparison) plus a sharded blocked_mt8 leg at the best tier.
// tools/bench_trace_json.sh turns this into BENCH_trace.json.
// ---------------------------------------------------------------------------
struct TraceBenchFixture {
  SyntheticSpec spec;
  Federation federation;
  Dataset test;
  LogicalNet model;

  TraceBenchFixture()
      : spec(BenchmarkSpec("adult").value()),
        federation([this] {
          Rng rng(17);
          // 40960 records keeps the Eq. 4 sweep (records x rules) the
          // dominant cost, so the per-ISA legs measure the kernel rather
          // than per-instance activation overhead.
          const Dataset train = GenerateSynthetic(spec, 40960, rng);
          Rng prng(18);
          return MakeFederation(PartitionSkewSample(train, 8, 0.7, prng));
        }()),
        test([this] {
          Rng rng(19);
          return GenerateSynthetic(spec, 256, rng);
        }()),
        model([this] {
          LogicalNetConfig config;
          config.logic_layers = {{32, 32}};
          config.seed = 5;
          LogicalNet net(spec.schema, config);
          // Train on a small independent sample: fixture setup stays
          // cheap, and tracing cost does not depend on training size.
          Rng rng(20);
          const Dataset sample = GenerateSynthetic(spec, 2000, rng);
          TrainConfig tc;
          tc.epochs = 5;
          tc.learning_rate = 0.05;
          TrainGrafted(net, sample, tc);
          return net;
        }()) {}
};

TraceBenchFixture& GetTraceBenchFixture() {
  static TraceBenchFixture* fixture = new TraceBenchFixture();
  return *fixture;
}

// `isa` < 0 means "whatever CurrentTraceIsa() dispatches" (the default
// production path); >= 0 forces that tier for a per-ISA speed leg.
void BM_TracePass(benchmark::State& state, TraceKernelKind kind, int isa,
                  int trace_threads) {
  TraceBenchFixture& fx = GetTraceBenchFixture();
  TracerConfig config;
  // 0.7 keeps lanes ambiguous deep into the weight-sorted sweep, so the
  // legs measure the Eq. 4 inner loop. At extreme thresholds (0.9+) the
  // suffix-sum checkpoints resolve almost every lane within the first few
  // rules and all tiers converge on the same fixed per-block overhead.
  config.tau_w = 0.7;
  config.use_dedup = true;
  config.num_threads = 1;
  config.kernel = kind;
  config.isa = isa < 0 ? CurrentTraceIsa() : static_cast<TraceIsa>(isa);
  config.trace_threads = trace_threads;
  const ContributionTracer tracer(&fx.model, &fx.federation, config);
  int64_t checks = 0, scanned = 0, pruned = 0, related = 0, fallbacks = 0;
  for (auto _ : state) {
    const TraceResult result = tracer.Trace(fx.test);
    benchmark::DoNotOptimize(result.related_records);
    checks += result.tau_w_checks;
    scanned += result.records_scanned;
    pruned += result.blocks_pruned;
    related += result.related_records;
    fallbacks += result.exact_fallbacks;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.test.size()));
  state.counters["num_rules"] = static_cast<double>(fx.model.num_rules());
  state.counters["tau_w_checks"] = benchmark::Counter(
      static_cast<double>(checks), benchmark::Counter::kAvgIterations);
  state.counters["records_scanned"] = benchmark::Counter(
      static_cast<double>(scanned), benchmark::Counter::kAvgIterations);
  state.counters["blocks_pruned"] = benchmark::Counter(
      static_cast<double>(pruned), benchmark::Counter::kAvgIterations);
  state.counters["related"] = benchmark::Counter(
      static_cast<double>(related), benchmark::Counter::kAvgIterations);
  state.counters["exact_fallbacks"] = benchmark::Counter(
      static_cast<double>(fallbacks), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_TracePass, legacy, TraceKernelKind::kLegacy, -1, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TracePass, blocked, TraceKernelKind::kBlocked, -1, 1)
    ->Unit(benchmark::kMillisecond);

// Ablation: tau_w sensitivity of tracing cost.
void BM_TracingTauW(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  TracerConfig config;
  config.tau_w = state.range(0) / 100.0;
  config.num_threads = 1;
  const ContributionTracer tracer(&fx.model, &fx.experiment.federation,
                                  config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.Trace(fx.experiment.test));
  }
}
BENCHMARK(BM_TracingTauW)->Arg(60)->Arg(80)->Arg(90)->Arg(100);

void BM_GraftedStep(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  const int width = static_cast<int>(state.range(0));
  LogicalNetConfig config;
  config.logic_layers = {{width / 2, width / 2}};
  config.seed = 7;
  LogicalNet net(fx.experiment.test.schema(), config);
  AdamOptimizer optimizer(0.01);

  const size_t batch = 64;
  std::vector<size_t> indices;
  std::vector<int> labels;
  for (size_t i = 0; i < batch; ++i) {
    indices.push_back(i % fx.experiment.test.size());
    labels.push_back(fx.experiment.test.instance(indices.back()).label);
  }
  const Matrix encoded =
      net.encoder().EncodeBatch(fx.experiment.test, indices);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GraftedStep(net, encoded, labels, optimizer));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GraftedStep)->Arg(64)->Arg(128)->Arg(256);

// ---------------------------------------------------------------------------
// Parallel engine (DESIGN.md §9). The results are bit-identical at every
// thread count, so these measure pure wall-clock scaling. Acceptance for
// the fan-out: >= 2x at 4 threads on the 8-client federation.
// ---------------------------------------------------------------------------

void BM_FedAvgRound(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  std::vector<Dataset> clients;
  clients.reserve(fx.experiment.federation.size());
  for (const Participant& p : fx.experiment.federation) {
    clients.push_back(p.data);
  }
  CtflConfig base = bench::MakeCtflConfig("adult", 5);

  FedAvgConfig config;
  config.rounds = 1;
  config.local_epochs = 1;
  config.local.learning_rate = 0.05;
  config.num_threads = static_cast<int>(state.range(0));
  // Keep the local matrix kernels serial in every leg so this measures
  // the client fan-out alone.
  config.local.num_threads = 1;

  const LogicalNet seed_net(fx.experiment.test.schema(), base.net);
  for (auto _ : state) {
    state.PauseTiming();
    LogicalNet net = seed_net;  // fresh global model per round
    state.ResumeTiming();
    const Status status = RunFedAvg(net, clients, config);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(net);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(clients.size()));
}
// Real-time rates: the pooled legs park the orchestrating thread while
// ThreadPool workers train, so CPU-time-based items_per_second (the
// google-benchmark default) would measure scheduler noise — useless and
// unstable for the perf-gate trajectory.
BENCHMARK(BM_FedAvgRound)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Degraded round: dropout + straggler + corrupt uploads with one retry.
// Measures the validation/retry overhead of the fault-tolerant commit
// phase relative to BM_FedAvgRound's fault-free fast path.
void BM_FedAvgRoundFaulty(benchmark::State& state) {
  TracingFixture& fx = Fixture();
  std::vector<Dataset> clients;
  clients.reserve(fx.experiment.federation.size());
  for (const Participant& p : fx.experiment.federation) {
    clients.push_back(p.data);
  }
  CtflConfig base = bench::MakeCtflConfig("adult", 5);

  FedAvgConfig config;
  config.rounds = 1;
  config.local_epochs = 1;
  config.local.learning_rate = 0.05;
  config.num_threads = static_cast<int>(state.range(0));
  config.local.num_threads = 1;
  FailureSpec spec;
  spec.dropout = 0.2;
  spec.straggler = 0.2;
  spec.corrupt = 0.1;
  spec.seed = 21;
  config.failure = FailurePlan(spec);
  config.retry_budget = 1;

  const LogicalNet seed_net(fx.experiment.test.schema(), base.net);
  for (auto _ : state) {
    state.PauseTiming();
    LogicalNet net = seed_net;  // fresh global model per round
    state.ResumeTiming();
    const Status status = RunFedAvg(net, clients, config);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(net);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(clients.size()));
}
BENCHMARK(BM_FedAvgRoundFaulty)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MatMul(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(11);
  Matrix a(256, 512), b(512, 256);
  a.RandomUniform(rng, -1, 1);
  b.RandomUniform(rng, -1, 1);
  SetMatrixParallelism(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  SetMatrixParallelism(0);
  state.SetItemsProcessed(state.iterations() * a.rows() * a.cols() *
                          b.cols());
}
BENCHMARK(BM_MatMul)->ArgNames({"threads"})->Arg(1)->Arg(4)->Arg(8);

void BM_MaxMiner(benchmark::State& state) {
  Rng rng(9);
  const size_t items = 64;
  std::vector<Bitset> transactions;
  for (int t = 0; t < 400; ++t) {
    Bitset row(items);
    for (size_t i = 0; i < items; ++i) {
      if (rng.Bernoulli(0.15)) row.Set(i);
    }
    transactions.push_back(std::move(row));
  }
  const VerticalDb db(transactions, items);
  const size_t min_support = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxMinerMaximal(db, min_support));
  }
}
BENCHMARK(BM_MaxMiner);

void BM_AprioriBaseline(benchmark::State& state) {
  Rng rng(9);
  const size_t items = 64;
  std::vector<Bitset> transactions;
  for (int t = 0; t < 400; ++t) {
    Bitset row(items);
    for (size_t i = 0; i < items; ++i) {
      if (rng.Bernoulli(0.15)) row.Set(i);
    }
    transactions.push_back(std::move(row));
  }
  const VerticalDb db(transactions, items);
  const size_t min_support = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaximalOnly(AprioriFrequent(db, min_support)));
  }
}
BENCHMARK(BM_AprioriBaseline);

void BM_SimplexLeastCoreShape(benchmark::State& state) {
  // LP shaped like the LeastCore program for n participants.
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  LpProblem lp;
  lp.num_vars = n + 1;
  lp.objective.assign(n + 1, 0.0);
  lp.objective[n] = 1.0;
  lp.free_vars.assign(n + 1, true);
  const int constraints = n * n * 3;
  for (int c = 0; c < constraints; ++c) {
    LpConstraint con;
    con.coeffs.assign(n + 1, 0.0);
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) con.coeffs[i] = 1.0;
    }
    con.coeffs[n] = 1.0;
    con.rel = LpConstraint::Rel::kGe;
    con.rhs = rng.Uniform(0.0, 1.0);
    lp.constraints.push_back(std::move(con));
  }
  LpConstraint eff;
  eff.coeffs.assign(n + 1, 0.0);
  for (int i = 0; i < n; ++i) eff.coeffs[i] = 1.0;
  eff.rel = LpConstraint::Rel::kEq;
  eff.rhs = 1.0;
  lp.constraints.push_back(std::move(eff));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveLp(lp));
  }
}
BENCHMARK(BM_SimplexLeastCoreShape)->Arg(4)->Arg(8)->Arg(12);

// ---------------------------------------------------------------------------
// Contribution bundle store (DESIGN.md §8): persistence cost of the
// train-once/query-forever split, plus the posting-list prefilter vs the
// linear reference scan.
// ---------------------------------------------------------------------------
struct BundleFixture {
  std::string path;
  store::BundleContent content;
  store::QueryEngine engine;

  BundleFixture()
      : path((std::filesystem::temp_directory_path() /
              "ctfl_micro_bench_bundle.ctflb")
                 .string()),
        content([] {
          TracingFixture& fx = Fixture();
          const CtflConfig config = bench::MakeCtflConfig("adult", 5);
          const ContributionTracer tracer(
              &fx.model, &fx.experiment.federation, config.tracer);
          store::SnapshotOptions options;
          options.tau_w = config.tracer.tau_w;
          options.macro_delta = config.macro_delta;
          options.min_rule_weight = config.tracer.min_rule_weight;
          return store::BuildBundleContent(
                     fx.model, fx.experiment.federation, fx.experiment.test,
                     tracer.train_activations(), options)
              .value();
        }()),
        engine([this] {
          store::BundleContent copy = content;
          return store::QueryEngine::FromContent(std::move(copy)).value();
        }()) {}
};

BundleFixture& GetBundleFixture() {
  static BundleFixture* fixture = new BundleFixture();
  return *fixture;
}

void BM_BundleSave(benchmark::State& state) {
  BundleFixture& fx = GetBundleFixture();
  size_t bytes = 0;
  for (auto _ : state) {
    const Status status = store::WriteBundle(fx.content, fx.path);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::ClobberMemory();
  }
  {
    std::ifstream in(fx.path, std::ios::binary | std::ios::ate);
    if (in) bytes = static_cast<size_t>(in.tellg());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  state.counters["bundle_bytes"] = static_cast<double>(bytes);
  state.counters["records"] =
      static_cast<double>(fx.content.total_train_records());
}
BENCHMARK(BM_BundleSave);

void BM_BundleLoad(benchmark::State& state) {
  BundleFixture& fx = GetBundleFixture();
  const Status written = store::WriteBundle(fx.content, fx.path);
  if (!written.ok()) state.SkipWithError(written.ToString().c_str());
  size_t bytes = 0;
  for (auto _ : state) {
    Result<store::BundleContent> loaded = store::ReadBundle(fx.path);
    if (!loaded.ok()) state.SkipWithError(loaded.status().ToString().c_str());
    benchmark::DoNotOptimize(loaded);
    bytes = loaded->total_train_records();  // keep the decode alive
  }
  {
    std::ifstream in(fx.path, std::ios::binary | std::ios::ate);
    if (in) bytes = static_cast<size_t>(in.tellg());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  state.counters["bundle_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_BundleLoad);

// Arg(0): linear class-bucket scan (the oracle). Arg(1): posting-list
// prefilter. Both return identical related sets; the prune counters show
// how much of the bucket the index skips. The capture name picks the
// Eq. 4 matching engine (legacy scalar vs blocked word-parallel kernel).
void BM_QueryRelated(benchmark::State& state, TraceKernelKind kind,
                     int isa) {
  BundleFixture& fx = GetBundleFixture();
  store::QueryOptions options;
  options.use_index = state.range(0) != 0;
  options.kernel = kind;
  options.isa = isa < 0 ? CurrentTraceIsa() : static_cast<TraceIsa>(isa);
  const size_t num_tests = fx.content.tests.size();
  size_t t = 0;
  int64_t checks = 0, bucket = 0, pruned = 0, scanned = 0;
  for (auto _ : state) {
    const store::RelatedResult result =
        fx.engine.RelatedForTest(t, options);
    benchmark::DoNotOptimize(result.total_related);
    checks += result.tau_w_checks;
    bucket += result.bucket_size;
    pruned += result.candidates_pruned;
    scanned += result.records_scanned;
    t = (t + 1) % num_tests;
  }
  state.SetItemsProcessed(state.iterations());
  if (bucket > 0) {
    state.counters["pruned_frac"] =
        static_cast<double>(pruned) / static_cast<double>(bucket);
  }
  state.counters["tau_w_checks/query"] =
      benchmark::Counter(static_cast<double>(checks),
                         benchmark::Counter::kAvgIterations);
  state.counters["records_scanned/query"] =
      benchmark::Counter(static_cast<double>(scanned),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_QueryRelated, legacy, TraceKernelKind::kLegacy, -1)
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_QueryRelated, blocked, TraceKernelKind::kBlocked, -1)
    ->Arg(0)
    ->Arg(1);

// ---------------------------------------------------------------------------
// Streaming score folds (DESIGN.md §15): folding one round's delta into
// live scores vs recomputing them through the full one-shot pipeline —
// the cost ratio the delta log exists to buy. The fold patches state in
// O(delta) and re-traces (no training, no forward passes); the recompute
// leg is everything a scoreboard without a delta log would have to rerun
// after round r. Both produce bit-identical scores (tests/stream_test.cc
// proves it); these legs measure the wall-clock gap alone. The fold_empty
// leg is the O(1) carry-over of a fully degraded round.
// Acceptance (ISSUE PR10): fold >= 10x cheaper than recompute, checked by
// the `stream` suite of tools/bench_suite.sh into BENCH_stream.json.
// ---------------------------------------------------------------------------
struct StreamBenchFixture {
  bench::PreparedExperiment experiment;
  CtflConfig config;
  stream::DeltaLogContents log;
  stream::StreamingScorer base;  ///< folded to round R-1

  StreamBenchFixture()
      : experiment(bench::Prepare("adult", 4, /*skew_label=*/false, 13)),
        config([] {
          CtflConfig c = bench::MakeCtflConfig("adult", 13);
          c.federated = true;
          c.fedavg.rounds = 4;
          c.fedavg.local_epochs = 2;
          c.fedavg.local.learning_rate = 0.05;
          c.fedavg.local.seed = 13;
          return c;
        }()),
        log([this] {
          const std::string path =
              (std::filesystem::temp_directory_path() /
               "ctfl_micro_bench_stream.ctfld")
                  .string();
          stream::DeltaLogEmitter emitter(path, &experiment.federation,
                                          &experiment.test, &config);
          emitter.Attach(&config.fedavg);
          RunCtfl(experiment.federation, experiment.test, config).value();
          CTFL_CHECK(emitter.status().ok());
          // The recompute leg reruns this config; drop the observer so it
          // measures the bare pipeline (and never touches the dead
          // emitter).
          config.fedavg.model_observer = nullptr;
          return stream::ReadDeltaLog(path).value();
        }()),
        base([this] {
          stream::StreamingScorer scorer =
              stream::StreamingScorer::FromHeader(log.header).value();
          for (size_t i = 0; i + 1 < log.rounds.size(); ++i) {
            CTFL_CHECK(scorer.Fold(log.rounds[i]).ok());
          }
          return scorer;
        }()) {}
};

StreamBenchFixture& GetStreamBenchFixture() {
  static StreamBenchFixture* fixture = new StreamBenchFixture();
  return *fixture;
}

void BM_StreamFold(benchmark::State& state, bool incremental) {
  StreamBenchFixture& fx = GetStreamBenchFixture();
  if (incremental) {
    const stream::RoundDelta& last = fx.log.rounds.back();
    for (auto _ : state) {
      state.PauseTiming();
      stream::StreamingScorer scorer = fx.base;  // fresh round-(R-1) state
      state.ResumeTiming();
      const Status status = scorer.Fold(last);
      if (!status.ok()) {
        state.SkipWithError(status.ToString().c_str());
        break;
      }
      benchmark::DoNotOptimize(scorer.micro_scores());
    }
    state.counters["delta_param_xors"] =
        static_cast<double>(fx.log.rounds.back().param_xors.size());
  } else {
    for (auto _ : state) {
      Result<CtflReport> report =
          RunCtfl(fx.experiment.federation, fx.experiment.test, fx.config);
      if (!report.ok()) {
        state.SkipWithError(report.status().ToString().c_str());
        break;
      }
      benchmark::DoNotOptimize(report->micro_scores);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rounds_in_log"] =
      static_cast<double>(fx.log.rounds.size());
}
BENCHMARK_CAPTURE(BM_StreamFold, fold, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_StreamFold, recompute, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A fully degraded round carries an empty delta: the fold is a counter
// bump, not a retrace.
void BM_StreamFoldEmpty(benchmark::State& state) {
  StreamBenchFixture& fx = GetStreamBenchFixture();
  for (auto _ : state) {
    state.PauseTiming();
    stream::StreamingScorer scorer = fx.base;
    stream::RoundDelta empty;
    empty.round = static_cast<uint32_t>(scorer.rounds_folded() + 1);
    empty.degraded = true;
    state.ResumeTiming();
    const Status status = scorer.Fold(empty);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(scorer.rounds_folded());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamFoldEmpty)->UseRealTime();

}  // namespace

// One forced-tier leg per SIMD tier this machine supports, so one Release
// run yields the full same-machine ISA trajectory (BENCH_trace.json keys
// the 2x acceptance on blocked vs blocked_scalar), plus a sharded leg at
// the best tier. Registered from main() — AvailableTraceIsas() needs a
// live process, not static-init order.
void RegisterIsaBenchVariants() {
  for (const TraceIsa isa : AvailableTraceIsas()) {
    const int tier = static_cast<int>(isa);
    benchmark::RegisterBenchmark(
        (std::string("BM_TracePass/blocked_") + TraceIsaName(isa)).c_str(),
        [tier](benchmark::State& state) {
          BM_TracePass(state, TraceKernelKind::kBlocked, tier, 1);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_QueryRelated/blocked_") + TraceIsaName(isa))
            .c_str(),
        [tier](benchmark::State& state) {
          BM_QueryRelated(state, TraceKernelKind::kBlocked, tier);
        })
        ->Arg(1);
  }
  const TraceIsa best = BestAvailableTraceIsa();
  const int tier = static_cast<int>(best);
  benchmark::RegisterBenchmark(
      "BM_TracePass/blocked_mt8",
      [tier](benchmark::State& state) {
        BM_TracePass(state, TraceKernelKind::kBlocked, tier, 8);
      })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

}  // namespace ctfl

// Custom main (replacing benchmark_main) so every BENCH_*.json carries
// the CTFL library's build type in its context block: perf trajectories
// must never mix debug and release numbers, and tools/perf_gate.py keys
// baseline-vs-candidate comparisons on this value.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("ctfl_build_type", ctfl::BuildTypeName());
  // The dispatched SIMD tier is execution context like the build type:
  // tools/perf_gate.py refuses to compare runs whose tiers differ.
  benchmark::AddCustomContext("ctfl_trace_isa",
                              ctfl::TraceIsaName(ctfl::CurrentTraceIsa()));
  ctfl::RegisterIsaBenchVariants();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
