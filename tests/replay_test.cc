// Tests of the record/replay harness (src/ctfl/replay/): container codec
// strictness and the version-evolution contract (goldens under
// tests/data/), recorder/tap digest parity, the replay-events legs, and
// the differential regression matrix over a small in-process run —
// including the faulty-vs-clean fingerprint-divergence cell.
//
// Suite names start with "Replay" so the TSan CI job's regex picks every
// suite up.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/benchmarks.h"
#include "ctfl/fl/partition.h"
#include "ctfl/replay/drift.h"
#include "ctfl/replay/recorder.h"
#include "ctfl/replay/replay_file.h"
#include "ctfl/replay/runner.h"
#include "ctfl/serve/protocol.h"
#include "ctfl/serve/service.h"
#include "ctfl/store/bundle.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/flags.h"
#include "ctfl/util/rng.h"
#include "ctfl/util/wire.h"
#include "test_paths.h"
#include "trace_compare.h"

namespace ctfl {
namespace replay {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

/// A replay file with every field populated (no pipeline run needed).
ReplayFile SampleFile() {
  ReplayFile file;
  file.has_spec = true;
  file.spec.source = DataSource::kCsv;
  file.spec.dataset = "adult";
  file.spec.train_path = "train.csv";
  file.spec.test_path = "test.csv";
  file.spec.train_csv_digest = 0x1122334455667788ull;
  file.spec.test_csv_digest = 0x8877665544332211ull;
  file.spec.participants = 5;
  file.spec.alpha = 0.65;
  file.spec.skew_label = true;
  file.spec.seed = 99;
  file.spec.federated = true;
  file.spec.rounds = 3;
  file.spec.local_epochs = 1;
  file.spec.epochs = 11;
  file.spec.width = 32;
  file.spec.tau_w = 0.87;
  file.spec.secure_agg = true;
  file.spec.failure_plan = "dropout=0.3,seed=17";
  file.spec.retry_budget = 2;
  file.spec.trace_kernel = 0;
  file.spec.num_threads = 4;
  file.has_outcome = true;
  file.outcome.config_digest = 0xa1;
  file.outcome.schema_fingerprint = 0xb2;
  file.outcome.failure_plan_fingerprint = 0xc3;
  file.outcome.run_fingerprint = 0xd4;
  file.outcome.test_accuracy = 0.8125;
  file.outcome.micro = {0.25, 0.5, 0.25};
  file.outcome.macro = {0.2, 0.3, 0.5};
  file.outcome.score_digest = ScoreDigest(file.outcome.micro,
                                          file.outcome.macro);
  file.outcome.render_digest = 0xe5;
  serve::Request evaluate;
  evaluate.op = serve::Op::kEvaluate;
  evaluate.evaluate.options.tau_w = 0.8;
  serve::Request stats;
  stats.op = serve::Op::kStats;
  file.events = {
      {static_cast<uint8_t>(serve::Op::kEvaluate),
       EncodeRequest(evaluate), 0x1111},
      {static_cast<uint8_t>(serve::Op::kStats), EncodeRequest(stats), 0},
  };
  return file;
}

void ExpectFilesEqual(const ReplayFile& a, const ReplayFile& b) {
  // Field-level spot checks plus the authoritative byte-level identity.
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.has_spec, b.has_spec);
  EXPECT_EQ(a.spec.failure_plan, b.spec.failure_plan);
  EXPECT_EQ(a.spec.num_threads, b.spec.num_threads);
  EXPECT_EQ(a.has_outcome, b.has_outcome);
  EXPECT_EQ(a.outcome.micro, b.outcome.micro);
  EXPECT_EQ(a.outcome.macro, b.outcome.macro);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(EncodeReplay(a), EncodeReplay(b));
}

// ---------------------------------------------------------------------------
// Container codec.
// ---------------------------------------------------------------------------

TEST(ReplayFileTest, RoundTripIsByteIdentical) {
  const ReplayFile file = SampleFile();
  const std::string bytes = EncodeReplay(file);
  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectFilesEqual(file, *decoded);
  // serialize -> parse -> serialize is the identity.
  EXPECT_EQ(EncodeReplay(*decoded), bytes);
}

TEST(ReplayFileTest, EmptyFileRoundTrips) {
  ReplayFile file;  // no spec, no outcome, no events
  Result<ReplayFile> decoded = DecodeReplay(EncodeReplay(file));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->has_spec);
  EXPECT_FALSE(decoded->has_outcome);
  EXPECT_TRUE(decoded->events.empty());
}

TEST(ReplayFileTest, FutureVersionRejectedWithClearMessage) {
  std::string bytes = EncodeReplay(SampleFile());
  // Version is the u32 straight after the 8-byte magic.
  const uint32_t future = kReplayVersion + 1;
  std::memcpy(&bytes[8], &future, sizeof(future));
  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("newer"), std::string::npos)
      << decoded.status();
}

TEST(ReplayFileTest, UnknownTrailingSectionIgnored) {
  const ReplayFile file = SampleFile();
  std::string bytes = EncodeReplay(file);
  // Splice in a section a future writer might add: bump section_count
  // (the u32 at offset 12) and append { name | payload | crc }.
  uint32_t count = 0;
  std::memcpy(&count, &bytes[12], sizeof(count));
  ++count;
  std::memcpy(&bytes[12], &count, sizeof(count));
  wire::Writer extra;
  extra.Str("future-section");
  const std::string payload = "payload this reader cannot know about";
  extra.Str(payload);
  extra.U32(store::Crc32(payload.data(), payload.size()));
  bytes += std::move(extra).Take();

  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectFilesEqual(file, *decoded);
}

TEST(ReplayFileTest, CrcCorruptionRejected) {
  std::string bytes = EncodeReplay(SampleFile());
  // Flip one byte well inside the first section's payload (past the
  // 16-byte header and the section name).
  bytes[40] = static_cast<char>(bytes[40] ^ 0x5a);
  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("CRC"), std::string::npos)
      << decoded.status();
}

TEST(ReplayFileTest, BadMagicAndTruncationRejected) {
  const std::string bytes = EncodeReplay(SampleFile());
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(DecodeReplay(wrong_magic).ok());
  // Every proper prefix must fail — never decode half a file.
  for (size_t len : {size_t{0}, size_t{4}, size_t{8}, size_t{15},
                     bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeReplay(std::string_view(bytes.data(), len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(ReplayFileTest, WriteReadRoundTripsOnDisk) {
  const ReplayFile file = SampleFile();
  const std::string path = TempPath("roundtrip.ctflr");
  ASSERT_TRUE(WriteReplayFile(file, path).ok());
  Result<ReplayFile> read = ReadReplayFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  ExpectFilesEqual(file, *read);
}

TEST(ReplayFileTest, DigestStableOps) {
  EXPECT_TRUE(OpIsDigestStable(static_cast<uint8_t>(serve::Op::kRelated)));
  EXPECT_TRUE(
      OpIsDigestStable(static_cast<uint8_t>(serve::Op::kRelatedForTest)));
  EXPECT_TRUE(OpIsDigestStable(static_cast<uint8_t>(serve::Op::kEvaluate)));
  EXPECT_FALSE(OpIsDigestStable(static_cast<uint8_t>(serve::Op::kStats)));
  EXPECT_FALSE(OpIsDigestStable(static_cast<uint8_t>(serve::Op::kShutdown)));
}

// ---------------------------------------------------------------------------
// Goldens: committed files pin the on-disk format across releases.
// ---------------------------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(CTFL_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ReplayGoldenTest, V1GoldenParsesAndReserializesIdentically) {
  const std::string bytes = ReadFileBytes(GoldenPath("golden_replay_v1.ctflr"));
  ASSERT_FALSE(bytes.empty());
  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->version, kReplayVersion);
  EXPECT_TRUE(decoded->has_spec);
  EXPECT_TRUE(decoded->has_outcome);
  EXPECT_FALSE(decoded->events.empty());
  // A current writer reproduces the golden byte-for-byte.
  EXPECT_EQ(EncodeReplay(*decoded), bytes);
}

TEST(ReplayGoldenTest, TrailingSectionGoldenIgnored) {
  // Same file as the v1 golden plus an unknown trailing section: a
  // future writer's output must load cleanly on this reader.
  const std::string v1 = ReadFileBytes(GoldenPath("golden_replay_v1.ctflr"));
  const std::string trailing =
      ReadFileBytes(GoldenPath("golden_replay_trailing.ctflr"));
  ASSERT_FALSE(trailing.empty());
  Result<ReplayFile> decoded = DecodeReplay(trailing);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  Result<ReplayFile> base = DecodeReplay(v1);
  ASSERT_TRUE(base.ok()) << base.status();
  ExpectFilesEqual(*base, *decoded);
}

TEST(ReplayGoldenTest, InflatedScoreCountsAreInvalidArgument) {
  // A 79-byte file whose CRC-valid outcome claims 33,554,431 micro scores
  // once sized a 256 MB vector before the reads ran out. Each score count
  // is now checked against the bytes its payload has left.
  const std::string bytes =
      ReadFileBytes(GoldenPath("replay_inflated_micro_count.ctflr"));
  ASSERT_EQ(bytes.size(), 79u);
  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status();
  EXPECT_NE(decoded.status().message().find("micro scores count"),
            std::string::npos)
      << decoded.status();

  // The same for the macro count, after two real micro scores.
  wire::Writer outcome;
  for (int i = 0; i < 4; ++i) outcome.U64(0);
  outcome.F64(0.5);
  outcome.U32(2);
  outcome.F64(0.25);
  outcome.F64(0.75);
  outcome.U32(1u << 20);
  const std::string payload = std::move(outcome).Take();
  wire::Writer file;
  file.U32(kReplayVersion);
  file.U32(1);
  file.Str("outcome");
  file.Str(payload);
  file.U32(store::Crc32(payload.data(), payload.size()));
  const std::string macro =
      std::string(kReplayMagic, 8) + std::move(file).Take();
  decoded = DecodeReplay(macro);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status();
  EXPECT_NE(decoded.status().message().find("macro scores count"),
            std::string::npos)
      << decoded.status();
}

TEST(ReplayGoldenTest, FutureVersionGoldenRejected) {
  const std::string bytes =
      ReadFileBytes(GoldenPath("golden_replay_future.ctflr"));
  ASSERT_FALSE(bytes.empty());
  Result<ReplayFile> decoded = DecodeReplay(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("newer"), std::string::npos)
      << decoded.status();
}

// ---------------------------------------------------------------------------
// Recorder + replay legs over a real (small) run.
// ---------------------------------------------------------------------------

/// Small self-contained run: regenerated benchmark data, central
/// training, two epochs — fast enough to re-execute several times in the
/// matrix test.
RunSpec SmallSpec() {
  RunSpec spec;
  spec.source = DataSource::kGenerate;
  spec.dataset = "adult";
  spec.train_n = 120;
  spec.train_seed = 7;
  spec.test_n = 40;
  spec.test_seed = 8;
  spec.participants = 3;
  spec.alpha = 0.8;
  spec.seed = 42;
  spec.federated = false;
  spec.epochs = 2;
  spec.width = 8;
  spec.tau_w = 0.9;
  return spec;
}

RunSpec FaultySpec() {
  RunSpec spec = SmallSpec();
  spec.federated = true;
  spec.rounds = 2;
  spec.local_epochs = 1;
  spec.secure_agg = true;
  spec.failure_plan = "dropout=0.3,seed=17";
  return spec;
}

TEST(ReplayRunnerTest, ExecuteRunSpecIsReproducible) {
  const RunSpec spec = SmallSpec();
  Result<RunArtifacts> a = ExecuteRunSpec(spec);
  ASSERT_TRUE(a.ok()) << a.status();
  Result<RunArtifacts> b = ExecuteRunSpec(spec);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(CompareOutcomes(a->outcome, b->outcome).ok());
  EXPECT_EQ(a->score_table, b->score_table);
  EXPECT_EQ(a->outcome.render_digest, HashBytes(a->score_table));
}

/// The QueryReport of one Evaluate over the bundle at `path`, matched at
/// `isa` with `threads` kernel threads.
store::QueryReport EvaluateBundle(const std::string& path, TraceIsa isa,
                                  int threads) {
  Result<store::QueryEngine> engine = store::QueryEngine::Open(path);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return {};
  store::EvalOptions options;
  options.isa = isa;
  options.trace_threads = threads;
  return engine->Evaluate(options);
}

TEST(ReplayRunnerTest, KernelFlipAndThreadsAreBitIdentical) {
  const RunSpec spec = SmallSpec();
  RunOverrides serial;
  serial.bundle_out = TempPath("threads_1.ctflb");
  Result<RunArtifacts> base = ExecuteRunSpec(spec, serial);
  ASSERT_TRUE(base.ok()) << base.status();

  // The kernel leg is gone with the scalar kernel (now the oracle of the
  // tracer tests); the thread leg stays. Both legs must agree on every
  // field: outcome, whole trace, and an evaluation of each leg's bundle
  // at its own thread count.
  RunOverrides threads;
  threads.num_threads = 2;
  threads.bundle_out = TempPath("threads_2.ctflb");
  Result<RunArtifacts> parallel = ExecuteRunSpec(spec, threads);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  const Status thread_match =
      CompareOutcomes(base->outcome, parallel->outcome);
  EXPECT_TRUE(thread_match.ok()) << thread_match;
  ExpectTracesIdentical(base->trace, parallel->trace);
  ExpectQueryReportsIdentical(
      EvaluateBundle(serial.bundle_out, CurrentTraceIsa(), 1),
      EvaluateBundle(threads.bundle_out, CurrentTraceIsa(), 2));
}

// An isa cell forces the process-wide tier, which the grafted training
// step reads, for its run only: forced to scalar from the best tier, the
// run is built at the scalar tier, reproduces the base outcome, and
// leaves the process tier as it found it.
TEST(ReplayRunnerTest, IsaOverrideForcesTheProcessTierForItsRunOnly) {
  const TraceIsa entry = CurrentTraceIsa();
  const TraceIsa best = BestAvailableTraceIsa();
  ASSERT_TRUE(SetTraceIsa(best).ok());
  const RunSpec spec = SmallSpec();
  RunOverrides dispatched;
  dispatched.bundle_out = TempPath("isa_best.ctflb");
  Result<RunArtifacts> base = ExecuteRunSpec(spec, dispatched);
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_EQ(base->config.tracer.isa, best);

  RunOverrides scalar;
  scalar.trace_isa = static_cast<int>(TraceIsa::kScalar);
  scalar.bundle_out = TempPath("isa_scalar.ctflb");
  Result<RunArtifacts> forced = ExecuteRunSpec(spec, scalar);
  ASSERT_TRUE(forced.ok()) << forced.status();
  EXPECT_EQ(forced->config.tracer.isa, TraceIsa::kScalar);
  EXPECT_EQ(CurrentTraceIsa(), best);
  const Status match = CompareOutcomes(base->outcome, forced->outcome);
  EXPECT_TRUE(match.ok()) << match;
  // Every field, not only the outcome: the whole trace, and an evaluation
  // of each leg's bundle at that leg's tier.
  ExpectTracesIdentical(base->trace, forced->trace);
  ExpectQueryReportsIdentical(
      EvaluateBundle(dispatched.bundle_out, best, 1),
      EvaluateBundle(scalar.bundle_out, TraceIsa::kScalar, 1));
  ASSERT_TRUE(SetTraceIsa(entry).ok());
}

TEST(ReplayRunnerTest, CompareOutcomesNamesTheDivergentField) {
  RunOutcome want;
  want.run_fingerprint = 1;
  RunOutcome got = want;
  EXPECT_TRUE(CompareOutcomes(want, got).ok());
  got.run_fingerprint = 2;
  const Status diverged = CompareOutcomes(want, got);
  ASSERT_FALSE(diverged.ok());
  EXPECT_NE(diverged.message().find("run_fingerprint"), std::string::npos)
      << diverged;
}

TEST(ReplayRunnerTest, DriftReportsAccuracyScoresAndSwappedPairs) {
  ReplayFile a;
  a.has_outcome = true;
  a.outcome.test_accuracy = 0.8;
  a.outcome.micro = {0.4, 0.3, 0.2, 0.1};
  a.outcome.macro = {0.1, 0.2, 0.3, 0.4};
  ReplayFile b = a;
  b.outcome.test_accuracy = 0.75;
  b.outcome.micro = {0.4, 0.2, 0.3, 0.1};  // P1 and P2 swap
  b.outcome.macro = {0.1, 0.2, 0.3, 0.5};  // same order
  // Through the files `ctfl_replay compare` reads.
  const std::string path_a = TempPath("drift_a.ctflr");
  const std::string path_b = TempPath("drift_b.ctflr");
  ASSERT_TRUE(WriteReplayFile(a, path_a).ok());
  ASSERT_TRUE(WriteReplayFile(b, path_b).ok());
  Result<ReplayFile> read_a = ReadReplayFile(path_a);
  Result<ReplayFile> read_b = ReadReplayFile(path_b);
  ASSERT_TRUE(read_a.ok() && read_b.ok());
  Result<OutcomeDrift> drift = MeasureDrift(read_a.value(), read_b.value());
  ASSERT_TRUE(drift.ok()) << drift.status();
  EXPECT_EQ(drift->accuracy_a, 0.8);
  EXPECT_EQ(drift->accuracy_b, 0.75);
  EXPECT_DOUBLE_EQ(drift->max_micro_delta, 0.1);
  EXPECT_DOUBLE_EQ(drift->max_macro_delta, 0.1);
  // Six pairs, one discordant: (5 - 1) / 6.
  EXPECT_DOUBLE_EQ(drift->micro_tau, 4.0 / 6.0);
  EXPECT_EQ(drift->macro_tau, 1.0);
  ASSERT_EQ(drift->swaps.size(), 1u);
  EXPECT_EQ(drift->swaps[0].scheme, "micro");
  EXPECT_EQ(drift->swaps[0].i, 1u);
  EXPECT_EQ(drift->swaps[0].j, 2u);
  EXPECT_DOUBLE_EQ(drift->swaps[0].gap_a, 0.1);
  EXPECT_DOUBLE_EQ(drift->swaps[0].gap_b, -0.1);
  const std::string report = RenderDrift(*drift);
  EXPECT_NE(report.find("test accuracy  0.800000  0.750000"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("tau-b 0.666667"), std::string::npos) << report;
  EXPECT_NE(report.find("swapped micro P1 P2"), std::string::npos) << report;

  // A file against itself: no drift.
  Result<OutcomeDrift> same = MeasureDrift(a, a);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->max_micro_delta, 0.0);
  EXPECT_EQ(same->micro_tau, 1.0);
  EXPECT_EQ(same->macro_tau, 1.0);
  EXPECT_TRUE(same->swaps.empty());

  // No outcome, or another participant count: InvalidArgument.
  ReplayFile spec_only;
  spec_only.has_spec = true;
  EXPECT_EQ(MeasureDrift(a, spec_only).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MeasureDrift(spec_only, a).status().code(),
            StatusCode::kInvalidArgument);
  ReplayFile fewer = a;
  fewer.outcome.micro.pop_back();
  fewer.outcome.macro.pop_back();
  EXPECT_EQ(MeasureDrift(a, fewer).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReplayRunnerTest, CsvDigestMismatchFailsLoudly) {
  const std::string path = TempPath("edited.csv");
  { std::ofstream(path) << "not,the,recorded,bytes\n"; }
  RunSpec spec = SmallSpec();
  spec.source = DataSource::kCsv;
  spec.train_path = path;
  spec.test_path = path;
  spec.train_csv_digest = 0xdeadbeef;  // anything but the real digest
  spec.test_csv_digest = 0xdeadbeef;
  Result<RunArtifacts> run = ExecuteRunSpec(spec);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("changed since recording"),
            std::string::npos)
      << run.status();
}

/// Parses `args` through the flag table and spec parser that `ctfl score`
/// and `ctfl_replay record` share.
Result<RunSpec> ParseSpecArgs(
    DataSource source, const std::vector<const char*>& args,
    const std::map<std::string, std::string>& tool_flags = {}) {
  FlagParser flags(RunSpecFlags(source, tool_flags));
  CTFL_RETURN_IF_ERROR(
      flags.Parse(static_cast<int>(args.size()), args.data()));
  return ParseRunSpecFlags(flags, source);
}

void ExpectInvalidArgument(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(ReplayRunnerTest, ZeroParticipantsIsInvalidArgument) {
  RunSpec spec = SmallSpec();
  spec.participants = 0;
  ExpectInvalidArgument(ExecuteRunSpec(spec).status());
}

TEST(ReplayRunnerTest, ZeroWidthIsInvalidArgument) {
  RunSpec spec = SmallSpec();
  spec.width = 0;
  ExpectInvalidArgument(ExecuteRunSpec(spec).status());
}

TEST(ReplayRunnerTest, SizesAboveIntMaxAreInvalidArgument) {
  RunSpec spec = SmallSpec();
  spec.participants = 0x80000000u;
  ExpectInvalidArgument(ExecuteRunSpec(spec).status());
  spec = SmallSpec();
  spec.width = 0x80000000u;
  ExpectInvalidArgument(ExecuteRunSpec(spec).status());
}

TEST(ReplayRunnerTest, NegativeParticipantsFlagIsInvalidArgument) {
  // -1 wraps to 2^32 - 1 in the unsigned spec field; the builder refuses
  // it before the partitioner sees it.
  Result<RunSpec> spec =
      ParseSpecArgs(DataSource::kGenerate, {"--participants", "-1"});
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->participants, UINT32_MAX);
  ExpectInvalidArgument(BuildRunInputs(*spec).status());
}

TEST(ReplayRunnerTest, NegativeRetryBudgetFlagIsInvalidArgument) {
  ExpectInvalidArgument(
      ParseSpecArgs(DataSource::kGenerate, {"--retry-budget", "-1"})
          .status());
}

TEST(ReplayRunnerTest, RecordedZeroSizesReplayAsInvalidArgument) {
  // A replay file with valid CRCs whose spec asks for zero participants or
  // a zero width: the replay and its matrix cells report a Status.
  for (const bool zero_width : {false, true}) {
    ReplayFile file;
    file.has_spec = true;
    file.spec = SmallSpec();
    (zero_width ? file.spec.width : file.spec.participants) = 0;
    file.has_outcome = true;
    const std::string path = TempPath("zero_sizes.ctflr");
    ASSERT_TRUE(WriteReplayFile(file, path).ok());
    Result<ReplayFile> read = ReadReplayFile(path);
    ASSERT_TRUE(read.ok()) << read.status();
    ExpectInvalidArgument(ExecuteRunSpec(read->spec).status());

    MatrixOptions options;
    options.scratch_dir = TestTempDir();
    options.only_cell = "base_replay";
    Result<std::vector<CellResult>> cells = RunMatrix(*read, options);
    ASSERT_TRUE(cells.ok()) << cells.status();
    ASSERT_EQ(cells->size(), 1u);
    EXPECT_FALSE((*cells)[0].pass);
    EXPECT_NE((*cells)[0].detail.find("must be in [1,"), std::string::npos)
        << (*cells)[0].detail;
  }
}

TEST(ReplayRunnerTest, CsvSpecConfigDigestMatchesScoreMapping) {
  const std::string train_path = TempPath("digest_train.csv");
  const std::string test_path = TempPath("digest_test.csv");
  const Dataset train = MakeBenchmark("adult", 120, 7).value();
  ASSERT_TRUE(SaveCsvDataset(train_path, train).ok());
  ASSERT_TRUE(
      SaveCsvDataset(test_path, MakeBenchmark("adult", 40, 8).value()).ok());
  for (const bool federated : {true, false}) {
    SCOPED_TRACE(federated ? "federated" : "central");
    std::vector<const char*> args = {
        "--train", train_path.c_str(), "--test", test_path.c_str(),
        "--rounds", "2", "--local-epochs", "1", "--epochs", "3",
        "--width", "13", "--tau-w", "0.85", "--seed", "9",
        "--alpha", "0.6", "--retry-budget", "2", "--num-threads", "2"};
    if (federated) {
      args.insert(args.end(), {"--federated", "--secure-agg",
                               "--failure-plan", "dropout=0.3,seed=17"});
    }
    Result<RunSpec> spec =
        ParseSpecArgs(DataSource::kCsv, args, {{"participants", "4"}});
    ASSERT_TRUE(spec.ok()) << spec.status();
    EXPECT_NE(spec->train_csv_digest, 0u);
    EXPECT_NE(spec->test_csv_digest, 0u);
    Result<RunInputs> run = BuildRunInputs(*spec);
    ASSERT_TRUE(run.ok()) << run.status();

    // Reference: the same flags partitioned and mapped field by field.
    Rng prng(9);
    const std::vector<Dataset> parts = PartitionSkewSample(train, 4, 0.6, prng);
    ASSERT_EQ(run->federation.size(), parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      EXPECT_EQ(run->federation[p].data.size(), parts[p].size()) << p;
    }
    CtflConfig by_hand;
    by_hand.federated = federated;
    by_hand.central.epochs = 3;
    by_hand.central.learning_rate = 0.05;
    by_hand.fedavg.rounds = 2;
    by_hand.fedavg.local_epochs = 1;
    by_hand.fedavg.local.learning_rate = 0.05;
    by_hand.fedavg.local.seed = 9;
    by_hand.fedavg.secure_aggregation = federated;
    by_hand.fedavg.failure =
        FailurePlan::Parse(federated ? "dropout=0.3,seed=17" : "").value();
    by_hand.fedavg.retry_budget = 2;
    by_hand.net.logic_layers = {{6, 7}};
    by_hand.net.seed = 9;
    by_hand.tracer.tau_w = 0.85;
    by_hand.tracer.isa = CurrentTraceIsa();
    by_hand.tracer.trace_threads = 1;
    by_hand.num_threads = 2;
    EXPECT_EQ(CtflConfigDigest(run->config), CtflConfigDigest(by_hand));
    EXPECT_EQ(run->config.fedavg.failure.Fingerprint(),
              by_hand.fedavg.failure.Fingerprint());
    EXPECT_EQ(run->config.num_threads, by_hand.num_threads);
  }
}

/// A QueryService over `bundle_path` whose request tap feeds `recorder` —
/// the one recording point of `ctfl_serve`, `ctfl query` and
/// `ctfl_replay record`.
std::unique_ptr<serve::QueryService> TappedService(
    const std::string& bundle_path, ReplayRecorder& recorder) {
  Result<store::QueryEngine> engine = store::QueryEngine::Open(bundle_path);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return nullptr;
  serve::ServiceConfig config;
  config.request_tap = recorder.Tap();
  return std::make_unique<serve::QueryService>(std::move(*engine), config);
}

/// EVALUATE at `tau_w`, RELATED_FOR_TEST on each of `tests`, and RELATED
/// on each of the test instances of `run` numbered in `instances`.
std::vector<serve::Request> QueryMix(const RunArtifacts& run, double tau_w,
                                     const std::vector<uint64_t>& tests,
                                     const std::vector<size_t>& instances,
                                     size_t max_records) {
  std::vector<serve::Request> requests(1);
  requests[0].op = serve::Op::kEvaluate;
  requests[0].evaluate.options.tau_w = tau_w;
  for (const uint64_t test_index : tests) {
    serve::Request& request = requests.emplace_back();
    request.op = serve::Op::kRelatedForTest;
    request.related_for_test.test_index = test_index;
    request.related_for_test.options.max_records = max_records;
  }
  for (const size_t i : instances) {
    serve::Request& request = requests.emplace_back();
    request.op = serve::Op::kRelated;
    request.related.instance = run.test.instance(i);
    request.related.options.max_records = max_records;
  }
  return requests;
}

TEST(ReplayRecorderTest, TapMatchesEngineDirectRecording) {
  RunSpec spec = SmallSpec();
  RunOverrides with_bundle;
  with_bundle.bundle_out = TempPath("recorder_parity.ctflb");
  Result<RunArtifacts> run = ExecuteRunSpec(spec, with_bundle);
  ASSERT_TRUE(run.ok()) << run.status();
  // Test 1 twice: the warm service answers the repeat from its LRU.
  const std::vector<serve::Request> requests =
      QueryMix(*run, 0.85, {1, 1}, {0}, 3);

  // One warm tapped service answers every request (a recording
  // ctfl_serve)...
  ReplayRecorder warm;
  {
    std::unique_ptr<serve::QueryService> service =
        TappedService(with_bundle.bundle_out, warm);
    ASSERT_NE(service, nullptr);
    for (const serve::Request& request : requests) service->Handle(request);
  }

  // ...and a fresh tapped service per request appends to the file on disk
  // (one `ctfl query --record` process each). Both must land identical
  // request bytes and response digests.
  const std::string path = TempPath("recorder_parity.ctflr");
  ASSERT_TRUE(WriteReplayFile(ReplayFile(), path).ok());
  for (const serve::Request& request : requests) {
    Result<ReplayFile> seed = ReadReplayFile(path);
    ASSERT_TRUE(seed.ok()) << seed.status();
    ReplayRecorder process(std::move(*seed));
    std::unique_ptr<serve::QueryService> service =
        TappedService(with_bundle.bundle_out, process);
    ASSERT_NE(service, nullptr);
    service->Handle(request);
    ASSERT_TRUE(process.WriteTo(path).ok());
  }

  const ReplayFile a = warm.Snapshot();
  Result<ReplayFile> b = ReadReplayFile(path);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a.events.size(), requests.size());
  ASSERT_EQ(b->events.size(), requests.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].op, b->events[i].op) << "event " << i;
    EXPECT_EQ(a.events[i].request, b->events[i].request) << "event " << i;
    EXPECT_EQ(a.events[i].response_digest, b->events[i].response_digest)
        << "event " << i;
  }
}

TEST(ReplayRecorderTest, ConcurrentTapCapturesEveryRequest) {
  RunSpec spec = SmallSpec();
  RunOverrides with_bundle;
  with_bundle.bundle_out = TempPath("recorder_concurrent.ctflb");
  Result<RunArtifacts> run = ExecuteRunSpec(spec, with_bundle);
  ASSERT_TRUE(run.ok()) << run.status();

  ReplayRecorder recorder;
  serve::ServiceConfig config;
  config.request_tap = recorder.Tap();
  Result<store::QueryEngine> engine =
      store::QueryEngine::Open(with_bundle.bundle_out);
  ASSERT_TRUE(engine.ok()) << engine.status();
  serve::QueryService service(std::move(*engine), config);

  constexpr int kThreads = 4;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, t] {
      for (int i = 0; i < kRequests; ++i) {
        serve::Request request;
        request.op = serve::Op::kRelatedForTest;
        request.related_for_test.test_index =
            static_cast<uint64_t>((t * kRequests + i) % 8);
        service.Handle(request);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.num_events(),
            static_cast<size_t>(kThreads * kRequests));
}

TEST(ReplayRunnerTest, EventLegsReplayDigestForDigest) {
  RunSpec spec = SmallSpec();
  RunOverrides with_bundle;
  with_bundle.bundle_out = TempPath("event_legs.ctflb");
  Result<RunArtifacts> run = ExecuteRunSpec(spec, with_bundle);
  ASSERT_TRUE(run.ok()) << run.status();

  ReplayRecorder recorder;
  {
    std::unique_ptr<serve::QueryService> tapped =
        TappedService(with_bundle.bundle_out, recorder);
    ASSERT_NE(tapped, nullptr);
    for (const serve::Request& request :
         QueryMix(*run, -1.0, {0, 2}, {1}, 2)) {
      tapped->Handle(request);
    }
  }
  const ReplayFile file = recorder.Snapshot();

  // Streamed-batch leg: one warm service.
  Result<store::QueryEngine> engine2 =
      store::QueryEngine::Open(with_bundle.bundle_out);
  ASSERT_TRUE(engine2.ok()) << engine2.status();
  serve::QueryService service(std::move(*engine2));
  Result<EventReplayResult> batch =
      ReplayEventsThroughService(file.events, service);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->replayed, 4u);
  EXPECT_EQ(batch->digest_checked, 4u);
  EXPECT_EQ(batch->mismatches, 0u) << batch->detail;

  // One-shot leg: a cold service per event.
  Result<EventReplayResult> oneshot =
      ReplayEventsOneShot(file.events, with_bundle.bundle_out);
  ASSERT_TRUE(oneshot.ok()) << oneshot.status();
  EXPECT_EQ(oneshot->replayed, 4u);
  EXPECT_EQ(oneshot->mismatches, 0u) << oneshot->detail;

  // A tampered digest must be caught, not absorbed.
  ReplayFile tampered = file;
  tampered.events[1].response_digest ^= 1;
  Result<store::QueryEngine> engine3 =
      store::QueryEngine::Open(with_bundle.bundle_out);
  ASSERT_TRUE(engine3.ok()) << engine3.status();
  serve::QueryService service3(std::move(*engine3));
  Result<EventReplayResult> caught =
      ReplayEventsThroughService(tampered.events, service3);
  ASSERT_TRUE(caught.ok()) << caught.status();
  EXPECT_EQ(caught->mismatches, 1u);
  EXPECT_FALSE(caught->detail.empty());
}

// ---------------------------------------------------------------------------
// Differential matrix.
// ---------------------------------------------------------------------------

TEST(ReplayMatrixTest, FaultyMatrixPassesIncludingCleanDivergence) {
  const RunSpec spec = FaultySpec();
  Result<RunArtifacts> base = ExecuteRunSpec(spec);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_NE(base->outcome.failure_plan_fingerprint, 0u);

  ReplayFile file;
  file.has_spec = true;
  file.spec = spec;
  file.has_outcome = true;
  file.outcome = base->outcome;

  const std::vector<MatrixCell> cells = GenerateMatrix(file);
  std::vector<std::string> names;
  names.reserve(cells.size());
  for (const MatrixCell& cell : cells) names.push_back(cell.name);
  // The isa cells depend on the machine: forced-scalar always, plus the
  // best available SIMD tier when the CPU has one.
  std::vector<std::string> want{"base_replay", "isa_scalar"};
  const TraceIsa best = BestAvailableTraceIsa();
  if (best != TraceIsa::kScalar) {
    want.push_back(std::string("isa_") + TraceIsaName(best));
  }
  // FaultySpec is federated, so the streamed delta-log cell joins in.
  want.insert(want.end(),
              {"threads_1", "threads_2", "threads_8", "clean", "streamed"});
  EXPECT_EQ(names, want);

  MatrixOptions options;
  options.scratch_dir = TestTempDir();
  Result<std::vector<CellResult>> results = RunMatrix(file, options);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), cells.size());
  for (const CellResult& result : *results) {
    EXPECT_TRUE(result.pass) << result.name << ": " << result.detail;
  }
}

TEST(ReplayMatrixTest, TamperedOutcomeFailsEveryRunCell) {
  const RunSpec spec = SmallSpec();
  Result<RunArtifacts> base = ExecuteRunSpec(spec);
  ASSERT_TRUE(base.ok()) << base.status();

  ReplayFile file;
  file.has_spec = true;
  file.spec = spec;
  file.has_outcome = true;
  file.outcome = base->outcome;
  file.outcome.score_digest ^= 1;  // recorded outcome no longer matches

  MatrixOptions options;
  options.scratch_dir = TestTempDir();
  options.only_cell = "base_replay";
  Result<std::vector<CellResult>> results = RunMatrix(file, options);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_FALSE((*results)[0].pass);
  EXPECT_NE((*results)[0].detail.find("score_digest"), std::string::npos)
      << (*results)[0].detail;
}

TEST(ReplayMatrixTest, QueryCellsIncludedWhenEventsPresent) {
  ReplayFile file = SampleFile();  // spec + outcome + events, no execution
  const std::vector<MatrixCell> cells = GenerateMatrix(file);
  std::vector<std::string> names;
  for (const MatrixCell& cell : cells) names.push_back(cell.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "queries_batch"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "queries_oneshot"),
            names.end());
  // Events alone (a `ctfl_serve --record` capture) build no run cells.
  file.has_spec = false;
  file.has_outcome = false;
  EXPECT_TRUE(GenerateMatrix(file).empty());
}

}  // namespace
}  // namespace replay
}  // namespace ctfl
