// Tests of the streaming contribution pipeline (src/ctfl/stream/,
// DESIGN.md §15): the tentpole property — scores and every trace field
// folded one RoundDelta at a time bit-match the one-shot pipeline after
// EVERY round, across every trace ISA this machine supports and thread
// counts 1/2/8, on a faulty secure-agg run — plus the delta-log corruption
// matrix (truncated tail, CRC flip, future version, unknown record kind),
// the AttachedDeltaLog attach/poll/verify loop, and the committed golden
// log.
//
// Suite names start with "Stream" so the TSan CI job's --gtest-style
// regex picks every suite up.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/allocation.h"
#include "ctfl/core/pipeline.h"
#include "ctfl/core/tracer.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/store/bundle.h"
#include "ctfl/stream/delta_log.h"
#include "ctfl/stream/emitter.h"
#include "ctfl/stream/scorer.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/rng.h"
#include "test_paths.h"
#include "trace_compare.h"

namespace ctfl {
namespace stream {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

std::string DataPath(const std::string& name) {
  return std::string(CTFL_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Appends one raw framed record (kind | len | payload | crc) so tests
/// can inject record kinds the current reader does not know.
void AppendRawRecord(const std::string& path, uint32_t kind,
                     const std::string& payload) {
  std::string framed;
  const auto put32 = [&framed](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      framed.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put32(kind);
  put32(static_cast<uint32_t>(payload.size()));
  framed += payload;
  put32(store::Crc32(payload.data(), payload.size()));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  ASSERT_TRUE(out.good()) << path;
}

::testing::AssertionResult BitEq(const std::vector<double>& want,
                                 const std::vector<double>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", want " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<uint64_t>(want[i]) != std::bit_cast<uint64_t>(got[i])) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << got[i] << " != " << want[i]
             << " (bit patterns differ)";
    }
  }
  return ::testing::AssertionSuccess();
}

SyntheticSpec ThreeRuleSpec() {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("a", 0, 1),
          FeatureSchema::Continuous("b", 0, 1),
          FeatureSchema::Continuous("c", 0, 1),
      },
      "neg", "pos");
  spec.samplers = {FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
                   FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
                   FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.6}}, 1, 1.0},
                {{{1, GtPredicate::Op::kLt, 0.4}}, 0, 1.0},
                {{{2, GtPredicate::Op::kGt, 0.5},
                  {0, GtPredicate::Op::kLt, 0.6}},
                 1,
                 0.8}};
  return spec;
}

/// A faulty secure-agg federated run: dropouts and corrupt uploads force
/// degraded rounds through the fold path, not just the happy path.
CtflConfig FaultyStreamConfig() {
  CtflConfig config;
  config.federated = true;
  config.fedavg.rounds = 5;
  config.fedavg.local_epochs = 2;
  config.fedavg.local.learning_rate = 0.05;
  config.fedavg.local.seed = 7;
  config.fedavg.secure_aggregation = true;
  config.fedavg.failure =
      FailurePlan::Parse("dropout=0.25,corrupt=0.1,seed=23").value();
  config.fedavg.retry_budget = 1;
  config.net.logic_layers = {{10, 10}};
  config.net.seed = 7;
  config.tracer.tau_w = 0.85;
  return config;
}

/// One instrumented run shared by every test: the emitted log, the
/// persisted bundle, the final report, and the one-shot traces and
/// micro/macro baselines recomputed from scratch at every round (index r =
/// after round r; index 0 = the initialized model).
struct StreamFixture {
  Federation fed;
  Dataset test;
  CtflConfig config;
  std::string log_path;
  std::string bundle_path;
  CtflReport report;
  DeltaLogContents log;
  std::vector<TraceResult> trace_at;
  std::vector<std::vector<double>> micro_at;
  std::vector<std::vector<double>> macro_at;
};

StreamFixture MakeStreamFixture() {
  Rng rng(31);
  const SyntheticSpec spec = ThreeRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 480, rng);
  Dataset test = GenerateSynthetic(spec, 120, rng);
  Rng prng(32);
  Federation fed = MakeFederation(PartitionSkewSample(all, 4, 0.7, prng));
  CtflConfig config = FaultyStreamConfig();
  std::string log_path = TempPath("stream_fx.ctfld");
  std::string bundle_path = TempPath("stream_fx.ctflb");
  config.bundle_out = bundle_path;

  // Snapshot the committed global model at every round so the one-shot
  // baseline can be recomputed from scratch per round — the emitter
  // chains this observer, so both see identical models.
  std::vector<LogicalNet> snapshots;
  config.fedavg.model_observer =
      [&snapshots](int round, const LogicalNet& global,
                   const telemetry::RoundTelemetry&) {
        EXPECT_EQ(static_cast<size_t>(round), snapshots.size());
        snapshots.push_back(global);
      };
  CtflReport report = [&] {
    DeltaLogEmitter emitter(log_path, &fed, &test, &config);
    emitter.Attach(&config.fedavg);
    CtflReport r = RunCtfl(fed, test, config).value();
    EXPECT_TRUE(emitter.status().ok()) << emitter.status();
    return r;
  }();
  EXPECT_TRUE(report.bundle_status.ok()) << report.bundle_status;
  // Drop the observer chain: it references the dead emitter and the
  // snapshots local of this function.
  config.fedavg.model_observer = nullptr;

  DeltaLogContents log = ReadDeltaLog(log_path).value();
  std::vector<TraceResult> trace_at;
  std::vector<std::vector<double>> micro_at;
  std::vector<std::vector<double>> macro_at;
  for (const LogicalNet& model : snapshots) {
    const ContributionTracer tracer(&model, &fed, config.tracer);
    trace_at.push_back(tracer.Trace(test));
    micro_at.push_back(MicroAllocation(trace_at.back()));
    macro_at.push_back(MacroAllocation(trace_at.back(), config.macro_delta));
  }
  return StreamFixture{std::move(fed),         std::move(test),
                       std::move(config),      std::move(log_path),
                       std::move(bundle_path), std::move(report),
                       std::move(log),         std::move(trace_at),
                       std::move(micro_at),    std::move(macro_at)};
}

const StreamFixture& Fx() {
  static const StreamFixture* fx = new StreamFixture(MakeStreamFixture());
  return *fx;
}

// ---------------------------------------------------------------------------
// The tentpole property.
// ---------------------------------------------------------------------------

TEST(StreamScorerTest, FoldBitMatchesOneShotAfterEveryRoundEverywhere) {
  const StreamFixture& fx = Fx();
  ASSERT_EQ(fx.log.rounds.size(),
            static_cast<size_t>(fx.config.fedavg.rounds));
  ASSERT_EQ(fx.micro_at.size(), fx.log.rounds.size() + 1);
  EXPECT_EQ(fx.log.truncated_bytes, 0u);
  EXPECT_EQ(fx.log.skipped_records, 0u);

  // The fault plan must actually have fired, or the "streamed scores
  // survive degraded rounds" half of the property is vacuous.
  uint32_t dropped = 0, retries = 0;
  for (const RoundDelta& round : fx.log.rounds) {
    dropped += round.clients_dropped;
    retries += round.retries;
  }
  EXPECT_GT(dropped + retries, 0u);

  for (const TraceIsa isa : AvailableTraceIsas()) {
    for (const int threads : {1, 2, 8}) {
      ScorerOptions options;
      options.isa = isa;
      options.trace_threads = threads;
      options.num_threads = threads;
      const std::string leg =
          std::string(TraceIsaName(isa)) + "/t" + std::to_string(threads);
      SCOPED_TRACE(leg);

      Result<StreamingScorer> scorer =
          StreamingScorer::FromHeader(fx.log.header, options);
      ASSERT_TRUE(scorer.ok()) << scorer.status();
      EXPECT_TRUE(BitEq(fx.micro_at[0], scorer->micro_scores()));
      EXPECT_TRUE(BitEq(fx.macro_at[0], scorer->macro_scores()));
      ExpectTracesIdentical(fx.trace_at[0], scorer->trace());

      for (size_t r = 0; r < fx.log.rounds.size(); ++r) {
        SCOPED_TRACE("after round " + std::to_string(r + 1));
        const Status folded = scorer->Fold(fx.log.rounds[r]);
        ASSERT_TRUE(folded.ok()) << folded;
        EXPECT_TRUE(BitEq(fx.micro_at[r + 1], scorer->micro_scores()));
        EXPECT_TRUE(BitEq(fx.macro_at[r + 1], scorer->macro_scores()));
        ExpectTracesIdentical(fx.trace_at[r + 1], scorer->trace());
      }
      // And the final fold equals the pipeline's own report.
      EXPECT_TRUE(BitEq(fx.report.micro_scores, scorer->micro_scores()));
      EXPECT_TRUE(BitEq(fx.report.macro_scores, scorer->macro_scores()));
    }
  }
}

TEST(StreamScorerTest, HeaderCarriesRunIdentity) {
  const StreamFixture& fx = Fx();
  const DeltaHeader& header = fx.log.header;
  EXPECT_EQ(header.config_digest, CtflConfigDigest(fx.config));
  EXPECT_EQ(header.schema_fingerprint, SchemaFingerprint(*fx.test.schema()));
  EXPECT_EQ(header.failure_plan_fingerprint,
            fx.config.fedavg.failure.Fingerprint());
  EXPECT_GT(header.num_rules, 0u);
  ASSERT_EQ(header.participant_names.size(), fx.fed.size());
  for (size_t p = 0; p < fx.fed.size(); ++p) {
    EXPECT_EQ(header.participant_names[p], fx.fed[p].name);
  }
  ASSERT_EQ(fx.log.rounds.size(),
            static_cast<size_t>(fx.config.fedavg.rounds));
  for (size_t i = 0; i < fx.log.rounds.size(); ++i) {
    EXPECT_EQ(fx.log.rounds[i].round, i + 1) << "rounds not consecutive";
  }
}

TEST(StreamScorerTest, FoldRejectsNonConsecutiveRounds) {
  const StreamFixture& fx = Fx();
  ASSERT_GE(fx.log.rounds.size(), 2u);
  Result<StreamingScorer> scorer =
      StreamingScorer::FromHeader(fx.log.header);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  EXPECT_FALSE(scorer->Fold(fx.log.rounds[1]).ok())
      << "round 2 folded before round 1";
  // The consecutive round still folds after the rejection.
  EXPECT_TRUE(scorer->Fold(fx.log.rounds[0]).ok());
}

// ---------------------------------------------------------------------------
// AttachedDeltaLog: fold on attach, poll for appended rounds, verify
// against the bundle snapshot.
// ---------------------------------------------------------------------------

store::BundleMeta BundleMetaAt(const std::string& bundle_path) {
  Result<store::BundleContent> bundle = store::ReadBundle(bundle_path);
  EXPECT_TRUE(bundle.ok()) << bundle.status();
  return bundle.ok() ? bundle->meta : store::BundleMeta();
}

TEST(StreamEngineTest, PollsAppendedRoundsAndVerifiesAgainstBundle) {
  const StreamFixture& fx = Fx();
  const std::string path = TempPath("stream_poll.ctfld");
  Result<DeltaLogWriter> writer = DeltaLogWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->AppendHeader(fx.log.header).ok());
  ASSERT_TRUE(writer->AppendRound(fx.log.rounds[0]).ok());
  ASSERT_TRUE(writer->AppendRound(fx.log.rounds[1]).ok());

  Result<AttachedDeltaLog> attached =
      AttachedDeltaLog::Attach(BundleMetaAt(fx.bundle_path), path);
  ASSERT_TRUE(attached.ok()) << attached.status();
  EXPECT_EQ(attached->rounds_folded(), 2u);
  EXPECT_TRUE(BitEq(fx.micro_at[2], attached->scorer().micro_scores()));
  // Mid-run the folded scores are round 2's, not the bundle's final ones.
  EXPECT_EQ(attached->Verify().ok(),
            fx.micro_at[2] == fx.report.micro_scores &&
                fx.macro_at[2] == fx.report.macro_scores);

  // The live half of the contract: training appends, the server polls.
  for (size_t r = 2; r < fx.log.rounds.size(); ++r) {
    ASSERT_TRUE(writer->AppendRound(fx.log.rounds[r]).ok());
  }
  Result<uint64_t> appended = attached->Poll();
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ(*appended, fx.log.rounds.size() - 2);
  EXPECT_EQ(attached->rounds_folded(), fx.log.rounds.size());
  EXPECT_TRUE(attached->Verify().ok()) << attached->Verify();

  // Idempotent when the log has not grown.
  appended = attached->Poll();
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_EQ(*appended, 0u);
}

TEST(StreamEngineTest, AttachRejectsLogOfAnotherSchema) {
  const StreamFixture& fx = Fx();
  store::BundleMeta meta = BundleMetaAt(fx.bundle_path);
  ASSERT_NE(meta.schema_fingerprint, 0u);
  ASSERT_EQ(meta.schema_fingerprint, fx.log.header.schema_fingerprint);
  meta.schema_fingerprint ^= 1;
  Result<AttachedDeltaLog> attached =
      AttachedDeltaLog::Attach(meta, fx.log_path);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(attached.status().message().find("schema fingerprint"),
            std::string::npos)
      << attached.status();

  // A bundle written without a fingerprint (0) attaches unchecked.
  meta.schema_fingerprint = 0;
  attached = AttachedDeltaLog::Attach(meta, fx.log_path);
  ASSERT_TRUE(attached.ok()) << attached.status();
  EXPECT_TRUE(attached->Verify().ok()) << attached->Verify();
}

TEST(StreamEngineTest, VerifyRejectsScoresOneUlpOff) {
  const StreamFixture& fx = Fx();
  for (const bool macro : {false, true}) {
    store::BundleMeta meta = BundleMetaAt(fx.bundle_path);
    std::vector<double>& scores =
        macro ? meta.macro_scores : meta.micro_scores;
    ASSERT_FALSE(scores.empty());
    scores.back() = std::nextafter(scores.back(), 2.0);
    Result<AttachedDeltaLog> attached =
        AttachedDeltaLog::Attach(meta, fx.log_path);
    ASSERT_TRUE(attached.ok()) << attached.status();
    const Status verified = attached->Verify();
    ASSERT_FALSE(verified.ok());
    EXPECT_NE(verified.message().find(macro ? "macro" : "micro"),
              std::string::npos)
        << verified;
  }
}

// ---------------------------------------------------------------------------
// Corruption matrix (mirrors the replay container's coverage).
// ---------------------------------------------------------------------------

TEST(StreamDeltaLogTest, TruncatedTailRecoversToLastWholeRecord) {
  const StreamFixture& fx = Fx();
  const std::string bytes = ReadFile(fx.log_path);
  ASSERT_GT(bytes.size(), 16u);
  // A crash mid-append: the last record loses its tail.
  const std::string chopped = bytes.substr(0, bytes.size() - 5);
  Result<DeltaLogContents> parsed = ParseDeltaLog(chopped, "chopped");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_GT(parsed->truncated_bytes, 0u);
  EXPECT_EQ(parsed->rounds.size(), fx.log.rounds.size() - 1);
  EXPECT_EQ(parsed->bytes_consumed + parsed->truncated_bytes,
            chopped.size());

  // The recovered prefix still folds (live logs look exactly like this
  // between appends).
  Result<StreamingScorer> scorer =
      StreamingScorer::FromHeader(parsed->header);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  Result<uint64_t> folded = scorer->FoldAll(*parsed);
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_EQ(*folded, parsed->rounds.size());
  EXPECT_TRUE(BitEq(fx.micro_at[parsed->rounds.size()],
                    scorer->micro_scores()));
}

TEST(StreamDeltaLogTest, CrcCorruptionIsRejectedNotAbsorbed) {
  const StreamFixture& fx = Fx();
  std::string bytes = ReadFile(fx.log_path);
  // Flip one byte inside the header record's payload (preamble is 12
  // bytes, record framing 8 more; +16 is payload territory).
  ASSERT_GT(bytes.size(), 40u);
  bytes[12 + 8 + 16] ^= 0x40;
  const Result<DeltaLogContents> parsed = ParseDeltaLog(bytes, "flipped");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// The header embeds the bundle's train payload codec, so a CRC-valid
// header whose record count claims far more bytes than it carries must be
// an InvalidArgument before anything is sized from that count.
TEST(StreamDeltaLogTest, InflatedTrainCountInHeaderIsRejected) {
  const StreamFixture& fx = Fx();
  std::string header = EncodeHeader(fx.log.header);
  const std::string train =
      store::EncodeTrainPayload(fx.log.header.participants);
  const size_t at = header.find(train);
  ASSERT_NE(at, std::string::npos);
  // Train payload: u32 participant count, then participant 0's u64 count.
  const uint64_t inflated = uint64_t{1} << 50;
  for (int i = 0; i < 8; ++i) {
    header[at + 4 + i] = static_cast<char>((inflated >> (8 * i)) & 0xff);
  }
  std::string bytes = ReadFile(fx.log_path).substr(0, 12);  // preamble
  const auto put32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put32(1);  // header record
  put32(static_cast<uint32_t>(header.size()));
  bytes += header;
  put32(store::Crc32(header.data(), header.size()));

  const Result<DeltaLogContents> parsed = ParseDeltaLog(bytes, "inflated");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("record count"),
            std::string::npos)
      << parsed.status();
}

// The header embeds the bundle's schema codec too: a CRC-valid header
// whose schema claims 0xffffffff features must be rejected before the
// feature vector is sized.
TEST(StreamDeltaLogTest, InflatedSchemaInHeaderIsRejected) {
  const StreamFixture& fx = Fx();
  std::string header = EncodeHeader(fx.log.header);
  const std::string schema = store::EncodeSchemaPayload(*fx.log.header.schema);
  const size_t at = header.find(schema);
  ASSERT_NE(at, std::string::npos);
  // Schema payload: the u32 feature count first.
  for (int i = 0; i < 4; ++i) header[at + i] = static_cast<char>(0xff);
  std::string bytes = ReadFile(fx.log_path).substr(0, 12);  // preamble
  const auto put32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put32(1);  // header record
  put32(static_cast<uint32_t>(header.size()));
  bytes += header;
  put32(store::Crc32(header.data(), header.size()));

  const Result<DeltaLogContents> parsed = ParseDeltaLog(bytes, "inflated");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("feature count"),
            std::string::npos)
      << parsed.status();
}

// A round record's four u64 counts size vectors; the record CRC covers
// only the payload, so any writer can claim 2^50 elements with a valid
// CRC. Each count is bounded by the bytes that follow it.
TEST(StreamDeltaLogTest, InflatedRoundCountIsRejected) {
  const StreamFixture& fx = Fx();
  RoundDelta round;
  round.round = 1;
  const std::string good = EncodeRound(round);
  // u32 round | u8 degraded | 3 x u32 client counts, then four u64 counts
  // (each followed by its empty element list).
  constexpr size_t kFirstCount = 4 + 1 + 3 * 4;
  ASSERT_EQ(good.size(), kFirstCount + 4 * 8);
  ASSERT_TRUE(DecodeRound(good).ok());
  for (size_t count = 0; count < 4; ++count) {
    std::string inflated = good;
    for (size_t i = 0; i < 8; ++i) {
      inflated[kFirstCount + 8 * count + i] =
          static_cast<char>(((uint64_t{1} << 50) >> (8 * i)) & 0xff);
    }
    const Result<RoundDelta> decoded = DecodeRound(inflated);
    ASSERT_FALSE(decoded.ok()) << "count " << count;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("count exceeds its payload"),
              std::string::npos)
        << decoded.status();

    // The same payload behind a recomputed CRC fails the whole log.
    const std::string path = TempPath("stream_inflated_round.ctfld");
    {
      Result<DeltaLogWriter> writer = DeltaLogWriter::Create(path);
      ASSERT_TRUE(writer.ok()) << writer.status();
      ASSERT_TRUE(writer->AppendHeader(fx.log.header).ok());
    }
    AppendRawRecord(path, /*kind=*/2, inflated);
    const Result<DeltaLogContents> parsed = ReadDeltaLog(path);
    ASSERT_FALSE(parsed.ok()) << "count " << count;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StreamDeltaLogTest, FutureContainerVersionIsRejected) {
  const StreamFixture& fx = Fx();
  std::string bytes = ReadFile(fx.log_path);
  bytes[8] = 2;  // version u32 follows the 8-byte magic
  EXPECT_FALSE(ParseDeltaLog(bytes, "future").ok());
  // And garbage magic is not a delta log at all.
  std::string not_magic = ReadFile(fx.log_path);
  not_magic[0] = 'X';
  EXPECT_FALSE(ParseDeltaLog(not_magic, "magic").ok());
}

TEST(StreamDeltaLogTest, UnknownRecordKindsAreSkippedAndCounted) {
  const StreamFixture& fx = Fx();
  const std::string path = TempPath("stream_unknown.ctfld");
  {
    Result<DeltaLogWriter> writer = DeltaLogWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->AppendHeader(fx.log.header).ok());
    ASSERT_TRUE(writer->AppendRound(fx.log.rounds[0]).ok());
  }
  // A record kind from the future lands mid-log; readers must step over
  // it and keep decoding (the replay container's tolerance rule).
  AppendRawRecord(path, /*kind=*/99, "from-the-future");
  AppendRawRecord(path, /*kind=*/2, EncodeRound(fx.log.rounds[1]));

  Result<DeltaLogContents> parsed = ReadDeltaLog(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->skipped_records, 1u);
  ASSERT_EQ(parsed->rounds.size(), 2u);
  EXPECT_EQ(parsed->rounds[1].round, 2u);

  Result<StreamingScorer> scorer =
      StreamingScorer::FromHeader(parsed->header);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  Result<uint64_t> folded = scorer->FoldAll(*parsed);
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_TRUE(BitEq(fx.micro_at[2], scorer->micro_scores()));
}

// ---------------------------------------------------------------------------
// Golden log: a delta log committed at container v1. If this test breaks,
// the reader stopped understanding logs already written to disk — bump
// the container version instead of changing v1 semantics. Regeneration
// recipe: EXPERIMENTS.md §"Streaming delta logs".
// ---------------------------------------------------------------------------

TEST(StreamGoldenTest, GoldenV1LogFoldsAndVerifiesAgainstGoldenBundle) {
  const std::string log_path = DataPath("golden_stream_v1.ctfld");
  const std::string bundle_path = DataPath("golden_stream_v1.ctflb");
  Result<DeltaLogContents> log = ReadDeltaLog(log_path);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->truncated_bytes, 0u);
  EXPECT_EQ(log->skipped_records, 0u);
  EXPECT_EQ(log->rounds.size(), 3u);
  EXPECT_EQ(log->header.participant_names.size(), 3u);

  Result<AttachedDeltaLog> attached =
      AttachedDeltaLog::Attach(BundleMetaAt(bundle_path), log_path);
  ASSERT_TRUE(attached.ok()) << attached.status();
  EXPECT_EQ(attached->rounds_folded(), 3u);
  // The end-to-end integrity statement: folding the committed chain
  // reproduces the committed bundle's scores bit-for-bit.
  EXPECT_TRUE(attached->Verify().ok()) << attached->Verify();
  double total = 0.0;
  for (const double score : attached->scorer().micro_scores()) total += score;
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace stream
}  // namespace ctfl
