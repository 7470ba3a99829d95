// Tests of the resident query service (src/ctfl/serve/): wire-protocol
// codec strictness, the sharded LRU, QueryService parity with direct
// QueryEngine calls, concurrent read-only engine use (bit-identical to
// serial), and the end-to-end unix-socket server under concurrent
// clients with graceful drain.
//
// Suite names start with "Serve" so the TSan CI job's --gtest-style regex
// picks every suite up.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/serve/client.h"
#include "ctfl/serve/lru_cache.h"
#include "ctfl/serve/protocol.h"
#include "ctfl/serve/server.h"
#include "ctfl/serve/service.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/util/rng.h"
#include "ctfl/util/wire.h"
#include "test_paths.h"

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define CTFL_SERVE_TEST_HAS_SOCKETS 1
#endif

namespace ctfl {
namespace serve {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

SyntheticSpec TwoRuleSpec() {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0, 1),
          FeatureSchema::Continuous("y", 0, 1),
      },
      "neg", "pos");
  spec.samplers = {
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
  return spec;
}

/// TwoRuleSpec with a discrete second feature of three categories.
SyntheticSpec DiscreteSpec() {
  SyntheticSpec spec = TwoRuleSpec();
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0, 1),
          FeatureSchema::Discrete("c", {"a", "b", "c"}),
      },
      "neg", "pos");
  spec.samplers[1] = FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0,
                                    {0.3, 0.3, 0.4}};
  return spec;
}

CtflConfig FastConfig() {
  CtflConfig config;
  config.federated = false;
  config.central.epochs = 12;
  config.central.learning_rate = 0.05;
  config.net.logic_layers = {{10, 10}};
  config.net.seed = 7;
  config.tracer.tau_w = 0.85;
  return config;
}

struct Fixture {
  Federation fed;
  Dataset test;
  CtflReport report;
  std::string bundle_path;
};

Fixture MakeFixture(CtflConfig config, const std::string& name,
                    int participants = 4,
                    const SyntheticSpec& spec = TwoRuleSpec()) {
  Rng rng(41);
  const Dataset all = GenerateSynthetic(spec, 500, rng);
  Dataset test = GenerateSynthetic(spec, 140, rng);
  Rng prng(42);
  Federation fed =
      MakeFederation(PartitionSkewSample(all, participants, 0.7, prng));
  config.bundle_out = TempPath(name);
  CtflReport report = RunCtfl(fed, test, config).value();
  EXPECT_TRUE(report.bundle_status.ok()) << report.bundle_status;
  return Fixture{std::move(fed), std::move(test), std::move(report),
                 config.bundle_out};
}

store::QueryEngine OpenEngine(const std::string& path) {
  Result<store::QueryEngine> engine = store::QueryEngine::Open(path);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

// ---------------------------------------------------------------------------
// Protocol codec.
// ---------------------------------------------------------------------------

Request SampleRelatedRequest() {
  Request request;
  request.op = Op::kRelated;
  request.request_id = 77;
  request.related.instance.values = {0.25, 0.75};
  request.related.instance.label = 1;
  request.related.options.tau_w = 0.9;
  request.related.options.max_records = 12;
  return request;
}

store::RelatedResult SampleRelatedResult() {
  store::RelatedResult related;
  related.predicted = 1;
  related.support_size = 3;
  related.support_weight = 1.5;
  related.related_count = {4, 0, 7};
  related.total_related = 11;
  related.records = {{0, 2}, {2, 5}};
  related.bucket_size = 250;
  related.tau_w_checks = 60;
  related.postings_scanned = 90;
  related.candidates_pruned = 190;
  related.records_scanned = 48;
  related.blocks_pruned = 2;
  return related;
}

TEST(ServeProtocolTest, RequestRoundTripsEveryOpBitExactly) {
  std::vector<Request> requests;
  requests.push_back(SampleRelatedRequest());
  {
    Request request;
    request.op = Op::kRelatedForTest;
    request.request_id = 5;
    request.related_for_test.test_index = 42;
    request.related_for_test.options.tau_w = -1.0;
    request.related_for_test.options.max_records = 3;
    requests.push_back(request);
  }
  {
    Request request;
    request.op = Op::kEvaluate;
    request.request_id = 6;
    request.evaluate.options.tau_w = 0.8;
    request.evaluate.options.delta = -1;  // defaulted server-side
    request.evaluate.options.top_k = 9;
    requests.push_back(request);
  }
  {
    Request request;
    request.op = Op::kStats;
    request.request_id = 8;
    requests.push_back(request);
  }
  {
    Request request;
    request.op = Op::kShutdown;
    request.request_id = 9;
    requests.push_back(request);
  }

  for (const Request& request : requests) {
    const std::string encoded = EncodeRequest(request);
    const Result<Request> decoded = DecodeRequest(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->op, request.op);
    EXPECT_EQ(decoded->request_id, request.request_id);
    // Re-encoding the decoded request must reproduce the original bytes:
    // the codec has one canonical form.
    EXPECT_EQ(EncodeRequest(*decoded), encoded) << OpName(request.op);
  }
}

TEST(ServeProtocolTest, ResponseRoundTripsRelatedAndStatsBitExactly) {
  Response response;
  response.op = Op::kRelated;
  response.request_id = 99;
  response.related = SampleRelatedResult();

  const std::string encoded = EncodeResponse(response);
  const Result<Response> decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(decoded->related.related_count, response.related.related_count);
  EXPECT_EQ(decoded->related.support_weight, response.related.support_weight);
  ASSERT_EQ(decoded->related.records.size(), 2u);
  EXPECT_EQ(decoded->related.records[1].participant, 2);
  EXPECT_EQ(decoded->related.records[1].local_index, 5);
  EXPECT_EQ(EncodeResponse(*decoded), encoded);

  Response stats;
  stats.op = Op::kStats;
  stats.request_id = 3;
  stats.stats.requests_total = 10;
  stats.stats.cache_hits = 4;
  stats.stats.num_participants = 3;
  stats.stats.origin_tau_w = 0.85;
  stats.stats.origin_delta = 2;
  stats.stats.participant_names = {"P0", "P1", "a name with spaces"};
  stats.stats.rounds_folded = 6;  // v3 field
  const std::string stats_encoded = EncodeResponse(stats);
  const Result<Response> stats_decoded = DecodeResponse(stats_encoded);
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status();
  EXPECT_EQ(stats_decoded->stats.participant_names,
            stats.stats.participant_names);
  EXPECT_EQ(stats_decoded->stats.origin_tau_w, 0.85);
  EXPECT_EQ(stats_decoded->stats.rounds_folded, 6u);
  EXPECT_EQ(EncodeResponse(*stats_decoded), stats_encoded);
}

TEST(ServeProtocolTest, ErrorResponseCarriesCodeAndMessage) {
  Response response;
  response.op = Op::kRelatedForTest;
  response.request_id = 12;
  response.status = Status::OutOfRange("test index 7 out of range");

  const std::string encoded = EncodeResponse(response);
  const Result<Response> decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->op, Op::kRelatedForTest);
  EXPECT_EQ(decoded->request_id, 12u);
  EXPECT_EQ(decoded->status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(decoded->status.message(), "test index 7 out of range");
}

TEST(ServeProtocolTest, DecodeRejectsVersionOpTruncationAndTrailing) {
  const std::string good = EncodeRequest(SampleRelatedRequest());

  // Unknown protocol version.
  std::string bad_version = good;
  bad_version[0] = static_cast<char>(kProtocolVersion + 1);
  EXPECT_FALSE(DecodeRequest(bad_version).ok());

  // Unknown op byte.
  std::string bad_op = good;
  bad_op[1] = 0x7f;
  EXPECT_FALSE(DecodeRequest(bad_op).ok());

  // Every strict prefix is a truncation error, never a silent default.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(std::string_view(good.data(), len)).ok())
        << "prefix of " << len << " bytes decoded";
  }

  // Trailing garbage is an error too.
  EXPECT_FALSE(DecodeRequest(good + "x").ok());

  // The reserved option bytes (once the prefilter and kernel selectors)
  // accept only their canonical 1: u8 version | u8 op | u64 id | instance
  // (u32 count | f64 values | u8 label) | f64 tau_w | reserved | u64 max
  // records | reserved.
  const size_t options_at = 1 + 1 + 8 + 4 + 2 * 8 + 1;
  for (const size_t reserved : {options_at + 8, options_at + 8 + 1 + 8}) {
    ASSERT_EQ(good[reserved], 1);
    for (const char bad : {0, 2}) {
      std::string mutated = good;
      mutated[reserved] = bad;
      EXPECT_FALSE(DecodeRequest(mutated).ok()) << "byte " << reserved;
    }
  }

  Response response;
  response.op = Op::kStats;
  response.stats.participant_names = {"P0"};
  const std::string good_response = EncodeResponse(response);
  for (size_t len = 0; len < good_response.size(); ++len) {
    EXPECT_FALSE(
        DecodeResponse(std::string_view(good_response.data(), len)).ok());
  }
  EXPECT_FALSE(DecodeResponse(good_response + "x").ok());
}

// Inflated counts: every u32 count a decoder reads sizes a vector, so each
// is checked against the bytes left before anything is allocated. Each
// case writes a well-formed prefix up to one count, then claims 2^32 - 1
// elements with nothing behind them.
constexpr uint32_t kInflatedCount = 0xffffffffu;

template <typename T>
void ExpectInflatedCountRejected(const Result<T>& decoded) {
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("count exceeds its payload"),
            std::string::npos)
      << decoded.status();
}

/// u8 version | u8 op | u64 id: the head of every request.
wire::Writer RequestHead(Op op) {
  wire::Writer w;
  w.U8(kProtocolVersion);
  w.U8(static_cast<uint8_t>(op));
  w.U64(1);
  return w;
}

/// Response head plus the ok byte.
wire::Writer ResponseHead(Op op) {
  wire::Writer w = RequestHead(op);
  w.U8(1);
  return w;
}

/// A RELATED request whose instance claims 2^32 - 1 values: the 14-byte
/// payload of the 18-byte hostile frame.
std::string InflatedInstanceRequest() {
  wire::Writer w = RequestHead(Op::kRelated);
  w.U32(kInflatedCount);
  return w.Take();
}

TEST(ServeProtocolTest, InflatedInstanceCountIsRejected) {
  const std::string payload = InflatedInstanceRequest();
  ASSERT_EQ(payload.size(), 14u);
  ExpectInflatedCountRejected(DecodeRequest(payload));
}

TEST(ServeProtocolTest, InflatedScoreCountIsRejected) {
  // EVALUATE: f64 tau_w | u32 delta | u32 micro count.
  wire::Writer w = ResponseHead(Op::kEvaluate);
  w.F64(0.85);
  w.U32(2);
  w.U32(kInflatedCount);
  ExpectInflatedCountRejected(DecodeResponse(w.Take()));
}

TEST(ServeProtocolTest, InflatedRelatedCountIsRejected) {
  // u32 predicted | u32 support size | f64 weight | u32 related counts.
  wire::Writer w = ResponseHead(Op::kRelated);
  w.U32(1);
  w.U32(3);
  w.F64(1.5);
  w.U32(kInflatedCount);
  ExpectInflatedCountRejected(DecodeResponse(w.Take()));
}

TEST(ServeProtocolTest, InflatedRecordCountIsRejected) {
  // ... | u32 related counts (0) | u64 total | u32 records.
  wire::Writer w = ResponseHead(Op::kRelatedForTest);
  w.U32(1);
  w.U32(3);
  w.F64(1.5);
  w.U32(0);
  w.U64(5);
  w.U32(kInflatedCount);
  ExpectInflatedCountRejected(DecodeResponse(w.Take()));
}

/// EVALUATE report head up to (not including) the uncovered-rule count.
wire::Writer ReportHead() {
  wire::Writer w = ResponseHead(Op::kEvaluate);
  w.F64(0.85);
  w.U32(2);
  w.U32(0);  // micro
  w.U32(0);  // macro
  w.F64(0.9);
  w.F64(0.8);
  w.U64(0);  // uncovered tests
  return w;
}

TEST(ServeProtocolTest, InflatedRuleStatCountIsRejected) {
  wire::Writer w = ReportHead();
  w.U32(kInflatedCount);
  ExpectInflatedCountRejected(DecodeResponse(w.Take()));
}

TEST(ServeProtocolTest, InflatedReportParticipantCountIsRejected) {
  wire::Writer w = ReportHead();
  w.U32(0);  // uncovered rules
  w.U32(kInflatedCount);
  ExpectInflatedCountRejected(DecodeResponse(w.Take()));
}

TEST(ServeProtocolTest, InflatedStatsNameCountIsRejected) {
  wire::Writer w = ResponseHead(Op::kStats);
  for (int i = 0; i < 8; ++i) w.U64(0);  // request and cache counters
  w.U32(4);                              // participants
  w.U32(10);                             // rules
  w.U64(500);                            // train records
  w.U64(140);                            // test records
  w.F64(0.85);                           // origin tau_w
  w.U32(2);                              // origin delta
  w.U64(0);                              // exact fallbacks
  w.Str("avx2");                         // trace isa
  w.U32(kInflatedCount);
  ExpectInflatedCountRejected(DecodeResponse(w.Take()));
}

// Golden frames: a v3 encoder's bytes for one request per op, one ok
// response per op and one error response, in that order. Each decodes,
// and re-encodes byte for byte, so a codec change that moves one byte of
// the v3 layout fails here.
TEST(ServeProtocolGoldenTest, V3FramesDecodeAndReencodeByteForByte) {
  std::ifstream in(std::string(CTFL_TEST_DATA_DIR) + "/golden_serve_v3.frames",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  FrameDecoder frames;
  frames.Append(bytes.data(), bytes.size());
  std::vector<std::string> payloads;
  std::string payload;
  while (frames.Next(&payload).value()) payloads.push_back(payload);
  ASSERT_TRUE(frames.idle());
  ASSERT_EQ(payloads.size(), 11u);

  const Op ops[] = {Op::kRelated, Op::kRelatedForTest, Op::kEvaluate,
                    Op::kStats, Op::kShutdown};
  for (size_t i = 0; i < 5; ++i) {
    const Result<Request> request = DecodeRequest(payloads[i]);
    ASSERT_TRUE(request.ok()) << i << ": " << request.status();
    EXPECT_EQ(request->op, ops[i]);
    EXPECT_EQ(request->request_id, i + 1);
    EXPECT_EQ(EncodeRequest(*request), payloads[i]) << OpName(ops[i]);
  }
  for (size_t i = 0; i < 6; ++i) {
    const Result<Response> response = DecodeResponse(payloads[5 + i]);
    ASSERT_TRUE(response.ok()) << i << ": " << response.status();
    EXPECT_EQ(response->op, i < 5 ? ops[i] : Op::kRelatedForTest);
    EXPECT_EQ(response->request_id, i < 5 ? i + 1 : 7u);
    EXPECT_EQ(response->status.ok(), i < 5);
    EXPECT_EQ(EncodeResponse(*response), payloads[5 + i]) << i;
  }

  const Request related = DecodeRequest(payloads[0]).value();
  ASSERT_EQ(related.related.instance.values.size(), 4u);
  EXPECT_TRUE(std::signbit(related.related.instance.values[1]));
  EXPECT_EQ(related.related.instance.values[2], 1e300);
  EXPECT_EQ(related.related.instance.label, 1);
  EXPECT_EQ(related.related.options.tau_w, 0.85);
  EXPECT_EQ(related.related.options.max_records, 25u);
  const Request evaluate = DecodeRequest(payloads[2]).value();
  EXPECT_EQ(evaluate.evaluate.options.delta, -1);
  EXPECT_EQ(evaluate.evaluate.options.top_k, 9);

  const Response lookup = DecodeResponse(payloads[5]).value();
  EXPECT_EQ(lookup.related.related_count, (std::vector<int>{4, 7}));
  ASSERT_EQ(lookup.related.records.size(), 2u);
  EXPECT_EQ(lookup.related.records[1].participant, 2);
  EXPECT_EQ(lookup.related.records[1].local_index, 5);
  EXPECT_EQ(lookup.related.exact_fallbacks, 1);
  const Response report = DecodeResponse(payloads[7]).value();
  EXPECT_EQ(report.report.micro, (std::vector<double>{0.5, 0.25, 0.125}));
  ASSERT_EQ(report.report.participants.size(), 2u);
  EXPECT_EQ(report.report.participants[0].beneficial[1].text, "y <= 0.25");
  EXPECT_TRUE(std::isinf(report.report.participants[1].useless_ratio));
  EXPECT_EQ(report.origin_macro, report.report.macro);
  const Response stats = DecodeResponse(payloads[8]).value();
  EXPECT_EQ(stats.stats.trace_isa, "avx512");
  EXPECT_EQ(stats.stats.participant_names.back(), "a name with spaces");
  EXPECT_EQ(stats.stats.rounds_folded, 6u);
  const Response error = DecodeResponse(payloads[10]).value();
  EXPECT_EQ(error.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(error.status.message(), "test index 7 out of range");
}

TEST(ServeProtocolTest, FrameDecoderReassemblesByteByByte) {
  const std::string payload_a = EncodeRequest(SampleRelatedRequest());
  Request stats;
  stats.op = Op::kStats;
  stats.request_id = 2;
  const std::string payload_b = EncodeRequest(stats);

  const std::string stream =
      Frame(payload_a).value() + Frame(payload_b).value();

  FrameDecoder decoder;
  std::vector<std::string> popped;
  for (size_t i = 0; i < stream.size(); ++i) {
    decoder.Append(stream.data() + i, 1);
    std::string frame;
    Result<bool> next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok()) << next.status();
    if (*next) popped.push_back(frame);
  }
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0], payload_a);
  EXPECT_EQ(popped[1], payload_b);
  EXPECT_TRUE(decoder.idle());
}

TEST(ServeProtocolTest, FrameDecoderPoisonsOnOversizedPrefix) {
  // Little-endian length prefix far beyond kMaxFrameBytes.
  const uint32_t huge = kMaxFrameBytes + 1;
  char prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  FrameDecoder decoder;
  decoder.Append(prefix, 4);
  std::string frame;
  EXPECT_FALSE(decoder.Next(&frame).ok());
  // Poisoned: even a well-formed follow-up frame cannot resynchronize.
  const std::string good = Frame("abc").value();
  decoder.Append(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&frame).ok());
  EXPECT_FALSE(decoder.idle());
}

// Drains every completed frame out of `decoder`, enforcing the decoder
// invariants: a popped payload never exceeds kMaxFrameBytes, and once
// Next() errors the poison is sticky. Returns false once poisoned.
bool DrainFrames(FrameDecoder& decoder, std::vector<std::string>* frames) {
  while (true) {
    std::string frame;
    Result<bool> next = decoder.Next(&frame);
    if (!next.ok()) {
      std::string again;
      EXPECT_FALSE(decoder.Next(&again).ok()) << "poison must be sticky";
      return false;
    }
    if (!*next) return true;
    EXPECT_LE(frame.size(), kMaxFrameBytes);
    frames->push_back(std::move(frame));
  }
}

TEST(ServeProtocolTest, FrameDecoderFuzzSplitsAndCoalescing) {
  // Whatever chunk boundaries the transport produces, the decoder must
  // pop the same frames in the same order.
  const std::vector<std::string> payloads = {
      EncodeRequest(SampleRelatedRequest()),
      std::string(1, '\0'),
      std::string(300, 'x'),
      "",
  };
  std::string stream;
  for (const std::string& payload : payloads) {
    stream += Frame(payload).value();
  }
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder decoder;
    std::vector<std::string> popped;
    size_t offset = 0;
    bool alive = true;
    while (offset < stream.size()) {
      const size_t chunk =
          1 + rng.UniformInt(std::min<uint64_t>(stream.size() - offset, 64));
      decoder.Append(stream.data() + offset, chunk);
      offset += chunk;
      alive = DrainFrames(decoder, &popped);
      ASSERT_TRUE(alive) << "well-formed stream poisoned the decoder";
    }
    ASSERT_EQ(popped.size(), payloads.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(popped[i], payloads[i]);
    }
    EXPECT_TRUE(decoder.idle());
  }
}

TEST(ServeProtocolTest, FrameDecoderFuzzSingleByteMutations) {
  // Every single-byte mutation of a two-frame stream must either decode
  // (possibly garbled payloads — framing can survive a body flip), stall
  // waiting for more bytes, or poison. Never crash, never over-read,
  // never pop an oversized frame.
  const std::string stream = Frame(EncodeRequest(SampleRelatedRequest())).value() +
                             Frame(std::string(40, 'y')).value();
  Rng rng(99);
  for (size_t pos = 0; pos < stream.size(); ++pos) {
    for (int flip = 0; flip < 3; ++flip) {
      std::string mutated = stream;
      mutated[pos] = static_cast<char>(rng.UniformInt(256));
      FrameDecoder decoder;
      std::vector<std::string> popped;
      // Feed in random chunks so the mutation also exercises partial-
      // prefix states.
      size_t offset = 0;
      bool alive = true;
      while (offset < mutated.size() && alive) {
        const size_t chunk = 1 + rng.UniformInt(std::min<uint64_t>(
                                     mutated.size() - offset, 16));
        decoder.Append(mutated.data() + offset, chunk);
        offset += chunk;
        alive = DrainFrames(decoder, &popped);
      }
      for (const std::string& frame : popped) {
        EXPECT_LE(frame.size(), kMaxFrameBytes);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded LRU.
// ---------------------------------------------------------------------------

TEST(ServeLruCacheTest, HitMissUpdateAndEviction) {
  // One shard makes the LRU order deterministic for the eviction check.
  ShardedLruCache<int, std::string> cache(2, /*num_shards=*/1);
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, "one");
  cache.Put(2, "two");
  EXPECT_EQ(cache.Get(1).value(), "one");  // 1 is now most recent
  cache.Put(3, "three");                   // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.Get(1).value(), "one");
  EXPECT_EQ(cache.Get(3).value(), "three");
  EXPECT_EQ(cache.size(), 2u);

  cache.Put(1, "uno");  // update-in-place, no eviction
  EXPECT_EQ(cache.Get(1).value(), "uno");
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ServeLruCacheTest, CapacityZeroDisablesStorage) {
  ShardedLruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeLruCacheTest, ConcurrentMixedUseIsSafeAndBounded) {
  ShardedLruCache<int, int> cache(64, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 2000; ++i) {
        const int key = (t * 131 + i) % 200;
        if (auto hit = cache.Get(key)) {
          EXPECT_EQ(*hit, key * 3);
        } else {
          cache.Put(key, key * 3);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 64u + 8u);  // per-shard cap rounds capacity up
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 2000u);
}

// ---------------------------------------------------------------------------
// QueryService (transport-free).
// ---------------------------------------------------------------------------

/// Encodes `response` with its request id + status echo preserved but the
/// payload replaced by a directly computed result — comparing encodings
/// proves the service's payload is bit-identical to the direct engine call.
std::string WithRelated(Response response, store::RelatedResult related) {
  response.related = std::move(related);
  return EncodeResponse(response);
}

std::string WithReport(Response response, store::QueryReport report) {
  response.report = std::move(report);
  return EncodeResponse(response);
}

TEST(ServeServiceTest, HandlersMatchDirectEngineCallsBitIdentically) {
  const Fixture fx = MakeFixture(FastConfig(), "serve_service.ctflb");
  const store::QueryEngine direct = OpenEngine(fx.bundle_path);
  QueryService service(OpenEngine(fx.bundle_path));

  // RELATED on a fresh instance, at the origin and a looser tau_w.
  for (const double tau_w : {-1.0, 0.7}) {
    Request request;
    request.op = Op::kRelated;
    request.request_id = 21;
    request.related.instance = fx.test.instance(3);
    request.related.options.tau_w = tau_w;
    request.related.options.max_records = 8;
    const Response response = service.Handle(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.request_id, 21u);
    EXPECT_EQ(EncodeResponse(response),
              WithRelated(response, direct.Related(fx.test.instance(3),
                                                   request.related.options)));
  }

  // RELATED_FOR_TEST over stored activations.
  {
    Request request;
    request.op = Op::kRelatedForTest;
    request.request_id = 22;
    request.related_for_test.test_index = 11;
    request.related_for_test.options.max_records = 5;
    const Response response = service.Handle(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(
        EncodeResponse(response),
        WithRelated(response,
                    direct.RelatedForTest(11, request.related_for_test.options)));
  }

  // EVALUATE carries the originating run's parameters + scores so clients
  // can render the CLI's reproduction line without the bundle.
  {
    Request request;
    request.op = Op::kEvaluate;
    request.request_id = 23;
    request.evaluate.options.tau_w = 0.8;
    request.evaluate.options.delta = 2;
    const Response response = service.Handle(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(EncodeResponse(response),
              WithReport(response, direct.Evaluate(request.evaluate.options)));
    EXPECT_EQ(response.origin_tau_w, direct.origin_tau_w());
    EXPECT_EQ(response.origin_delta, direct.origin_delta());
    EXPECT_EQ(response.origin_micro, direct.bundle().meta.micro_scores);
    EXPECT_EQ(response.origin_macro, direct.bundle().meta.macro_scores);
  }

  // STATS reflects the traffic above (including itself) and the bundle
  // shape.
  {
    Request request;
    request.op = Op::kStats;
    const Response response = service.Handle(request);
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.stats.requests_total, 5u);
    EXPECT_EQ(response.stats.related_requests, 2u);
    EXPECT_EQ(response.stats.related_for_test_requests, 1u);
    EXPECT_EQ(response.stats.evaluate_requests, 1u);
    EXPECT_EQ(response.stats.errors_total, 0u);
    EXPECT_EQ(response.stats.num_participants, 4u);
    EXPECT_EQ(response.stats.test_records, fx.test.size());
    EXPECT_EQ(response.stats.participant_names,
              direct.bundle().meta.participant_names);
  }
}

TEST(ServeServiceTest, BadRequestsTravelAsStatusNotCrashes) {
  const Fixture fx = MakeFixture(FastConfig(), "serve_service_bad.ctflb");
  QueryService service(OpenEngine(fx.bundle_path));

  Request bad_index;
  bad_index.op = Op::kRelatedForTest;
  bad_index.request_id = 31;
  bad_index.related_for_test.test_index = 1u << 20;
  const Response response = service.Handle(bad_index);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.request_id, 31u);

  Request bad_width;
  bad_width.op = Op::kRelated;
  bad_width.related.instance.values = {0.5};  // schema has 2 features
  EXPECT_FALSE(service.Handle(bad_width).status.ok());

  EXPECT_EQ(service.Stats().errors_total, 2u);
}

TEST(ServeServiceTest, NonIndexDiscreteValuesAreErrorsAndServingContinues) {
  // A RELATED instance's discrete value comes off the wire as a double and
  // once reached the encoder's float-to-int cast, undefined for NaN, ±inf
  // and out-of-range values. Each value that is not a category index must
  // be answered with InvalidArgument, in process and over a socket, and the
  // next request must still be answered.
  const Fixture fx = MakeFixture(FastConfig(), "serve_discrete.ctflb", 4,
                                 DiscreteSpec());
  QueryService service(OpenEngine(fx.bundle_path));
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         1e300,
                         -1.0,
                         2.5,
                         3.0};  // the category count
  auto related = [](double c) {
    Request request;
    request.op = Op::kRelated;
    request.related.instance.values = {0.25, c};
    return request;
  };
  const Response good = service.Handle(related(2.0));
  ASSERT_TRUE(good.status.ok()) << good.status;
  for (double bad : kBad) {
    SCOPED_TRACE(::testing::Message() << "value " << bad);
    EXPECT_EQ(service.Handle(related(bad)).status.code(),
              StatusCode::kInvalidArgument);
    const Response next = service.Handle(related(2.0));
    ASSERT_TRUE(next.status.ok()) << next.status;
    EXPECT_EQ(next.related.total_related, good.related.total_related);
  }
  EXPECT_EQ(service.Stats().errors_total, std::size(kBad));

  if (!ServerSupported()) return;
  ServerConfig config;
  config.socket_path = TempPath("serve_discrete.sock");
  config.num_threads = 2;
  Server server(&service, config);
  ASSERT_TRUE(server.Start().ok());
  Result<Client> client = Client::ConnectUnix(config.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  for (double bad : kBad) {
    SCOPED_TRACE(::testing::Message() << "served value " << bad);
    const Result<Response> answer = client->Call(related(bad));
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->status.code(), StatusCode::kInvalidArgument);
    const Result<Response> next = client->Call(related(2.0));
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_TRUE(next->status.ok()) << next->status;
  }
  server.Shutdown();
  server.Wait();
}

TEST(ServeServiceTest, HandlePayloadEchoesHeaderOnMalformedFrames) {
  const Fixture fx = MakeFixture(FastConfig(), "serve_payload.ctflb");
  QueryService service(OpenEngine(fx.bundle_path));

  // A structurally valid header followed by a truncated body: the encoded
  // error response must echo the op + request id so the client can match
  // it to the in-flight call.
  Request request;
  request.op = Op::kRelatedForTest;
  request.request_id = 417;
  request.related_for_test.test_index = 3;
  std::string payload = EncodeRequest(request);
  payload.resize(payload.size() - 2);

  bool shutdown = false;
  const std::string encoded = service.HandlePayload(payload, &shutdown);
  EXPECT_FALSE(shutdown);
  const Result<Response> response = DecodeResponse(encoded);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->status.ok());
  EXPECT_EQ(response->op, Op::kRelatedForTest);
  EXPECT_EQ(response->request_id, 417u);

  // SHUTDOWN flips the flag and still answers ok.
  Request stop;
  stop.op = Op::kShutdown;
  stop.request_id = 1;
  const std::string stop_encoded =
      service.HandlePayload(EncodeRequest(stop), &shutdown);
  EXPECT_TRUE(shutdown);
  const Result<Response> stop_response = DecodeResponse(stop_encoded);
  ASSERT_TRUE(stop_response.ok()) << stop_response.status();
  EXPECT_TRUE(stop_response->status.ok());
}

TEST(ServeServiceTest, RelatedForTestCacheHitsAreBitIdentical) {
  const Fixture fx = MakeFixture(FastConfig(), "serve_cache.ctflb");
  ServiceConfig config;
  config.lru_capacity = 32;
  QueryService service(OpenEngine(fx.bundle_path), config);

  Request request;
  request.op = Op::kRelatedForTest;
  request.related_for_test.test_index = 7;
  request.related_for_test.options.max_records = 4;

  Response first = service.Handle(request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  // An explicit tau_w equal to the origin default hits the same entry as
  // the defaulted (-1) request: the cache key normalizes tau_w first.
  Request explicit_tau = request;
  explicit_tau.related_for_test.options.tau_w = service.engine().origin_tau_w();
  Response second = service.Handle(explicit_tau);
  ASSERT_TRUE(second.status.ok()) << second.status;

  first.request_id = second.request_id = 0;
  EXPECT_EQ(EncodeResponse(first), EncodeResponse(second));
  const ServerStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // Different options are different cache entries, not stale hits.
  Request more = request;
  more.related_for_test.options.max_records = 5;
  Response third = service.Handle(more);
  ASSERT_TRUE(third.status.ok()) << third.status;
  EXPECT_EQ(service.Stats().cache_misses, 2u);
  third.request_id = 0;
  EXPECT_EQ(third.related.related_count, first.related.related_count);
}

// ---------------------------------------------------------------------------
// Concurrent read-only engine use (satellite: N threads bit-identical to
// serial).
// ---------------------------------------------------------------------------

TEST(ServeConcurrencyTest, InterleavedQueriesMatchSerialBitIdentically) {
  const Fixture fx = MakeFixture(FastConfig(), "serve_conc.ctflb");
  const store::QueryEngine engine = OpenEngine(fx.bundle_path);
  QueryService service(OpenEngine(fx.bundle_path));

  // The work list interleaves every query type at two thresholds.
  struct Work {
    Request request;
  };
  std::vector<Request> work;
  for (int i = 0; i < 24; ++i) {
    Request request;
    request.request_id = 1;  // constant: responses must not depend on id
    switch (i % 3) {
      case 0:
        request.op = Op::kRelated;
        request.related.instance = fx.test.instance(i % fx.test.size());
        request.related.options.max_records = 6;
        request.related.options.tau_w = (i % 2) ? 0.8 : -1.0;
        break;
      case 1:
        request.op = Op::kRelatedForTest;
        request.related_for_test.test_index = (i * 5) % fx.test.size();
        request.related_for_test.options.max_records = (i % 2) ? 6 : 3;
        break;
      default:
        request.op = Op::kEvaluate;
        request.evaluate.options.tau_w = (i % 2) ? 0.8 : -1.0;
        break;
    }
    work.push_back(request);
  }

  // Serial baseline over the direct engine.
  std::vector<std::string> serial;
  for (const Request& request : work) {
    serial.push_back(EncodeResponse(service.Handle(request)));
  }

  // N threads replay the same work interleaved, against both the service
  // (cache + counters exercised) and the bare engine.
  constexpr int kThreads = 8;
  std::vector<std::vector<std::string>> served(kThreads);
  std::atomic<int> engine_mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      served[t].resize(work.size());
      for (size_t i = 0; i < work.size(); ++i) {
        // Stagger start offsets so threads hit different ops at once.
        const size_t j = (i + t * 7) % work.size();
        const Request& request = work[j];
        served[t][j] = EncodeResponse(service.Handle(request));
        // Direct engine calls from the same threads, interleaved.
        if (request.op == Op::kRelated) {
          const store::RelatedResult direct =
              engine.Related(request.related.instance,
                             request.related.options);
          Response wrap;
          wrap.op = Op::kRelated;
          wrap.request_id = 1;
          wrap.related = direct;
          if (EncodeResponse(wrap) != serial[j]) engine_mismatches++;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(engine_mismatches.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < work.size(); ++i) {
      EXPECT_EQ(served[t][i], serial[i])
          << "thread " << t << " request " << i << " ("
          << OpName(work[i].op) << ") diverged from serial";
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end socket server.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, ConcurrentClientsGetBitIdenticalResponsesAndDrain) {
  if (!ServerSupported()) GTEST_SKIP() << "socket server not compiled in";

  const Fixture fx = MakeFixture(FastConfig(), "serve_server.ctflb");
  QueryService service(OpenEngine(fx.bundle_path));

  ServerConfig config;
  config.socket_path = TempPath("serve_server.sock");
  config.num_threads = 4;
  Server server(&service, config);
  ASSERT_TRUE(server.Start().ok());

  // Serial expectations, keyed by (op kind, index), ids pinned to 0.
  const store::QueryEngine direct = OpenEngine(fx.bundle_path);
  auto expected_related_for_test = [&](size_t index) {
    store::QueryOptions options;
    options.max_records = 4;
    Response wrap;
    wrap.op = Op::kRelatedForTest;
    wrap.request_id = 0;
    wrap.related = direct.RelatedForTest(index, options);
    return EncodeResponse(wrap);
  };

  constexpr int kClients = 8;
  constexpr int kRequests = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<Client> client = Client::ConnectUnix(config.socket_path);
      if (!client.ok()) {
        failures++;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        Request request;
        request.op = Op::kRelatedForTest;
        request.related_for_test.test_index =
            (c * 31 + i) % fx.test.size();
        request.related_for_test.options.max_records = 4;
        Result<Response> response = client->Call(request);
        if (!response.ok() || !response->status.ok()) {
          failures++;
          continue;
        }
        Response normalized = *response;
        normalized.request_id = 0;
        if (EncodeResponse(normalized) !=
            expected_related_for_test(request.related_for_test.test_index)) {
          failures++;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.Stats().requests_total,
            static_cast<uint64_t>(kClients * kRequests));

  // Graceful drain via the SHUTDOWN op: the response still arrives, then
  // the server unwinds completely.
  Result<Client> closer = Client::ConnectUnix(config.socket_path);
  ASSERT_TRUE(closer.ok()) << closer.status();
  Request stop;
  stop.op = Op::kShutdown;
  Result<Response> stop_response = closer->Call(stop);
  ASSERT_TRUE(stop_response.ok()) << stop_response.status();
  EXPECT_TRUE(stop_response->status.ok());
  server.Wait();
  EXPECT_FALSE(server.running());

  // The socket file is gone and fresh connections fail: nothing leaked.
  EXPECT_FALSE(Client::ConnectUnix(config.socket_path).ok());
}

TEST(ServeServiceTest, StatsReportsRoundsFoldedFromCallback) {
  const Fixture fx = MakeFixture(FastConfig(), "serve_folds.ctflb");
  ServiceConfig config;
  std::atomic<uint64_t> folds{3};
  config.rounds_folded_fn = [&folds] { return folds.load(); };
  QueryService service(OpenEngine(fx.bundle_path), config);
  EXPECT_EQ(service.Stats().rounds_folded, 3u);
  // The callback is consulted per STATS call, never cached: a poller
  // folding appended rounds shows up on the next request.
  folds.store(8);
  EXPECT_EQ(service.Stats().rounds_folded, 8u);

  // Without a callback the field stays 0 (non-streaming servers).
  QueryService plain(OpenEngine(fx.bundle_path));
  EXPECT_EQ(plain.Stats().rounds_folded, 0u);
}

#if defined(CTFL_SERVE_TEST_HAS_SOCKETS)
/// A raw unix-socket connection to `path`, for peers that misbehave below
/// the Client API; -1 on failure.
int ConnectRaw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Slow-loris hardening (ISSUE PR10 satellite): a peer that connects and
// never completes a frame must be disconnected after idle_timeout_ms and
// counted, instead of pinning a worker slot forever.
TEST(ServeServerTest, IdleConnectionsAreClosedAndCounted) {
  if (!ServerSupported()) GTEST_SKIP() << "socket server not compiled in";

  const Fixture fx = MakeFixture(FastConfig(), "serve_idle.ctflb");
  QueryService service(OpenEngine(fx.bundle_path));

  ServerConfig config;
  config.socket_path = TempPath("serve_idle.sock");
  config.num_threads = 2;
  config.idle_timeout_ms = 200;
  Server server(&service, config);
  ASSERT_TRUE(server.Start().ok());

  telemetry::Counter& idle_closed =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.serve.idle_closed");
  const int64_t before = idle_closed.value();

  // The loris: connect, send half a frame header, then stall forever.
  const int fd = ConnectRaw(config.socket_path);
  ASSERT_GE(fd, 0);
  const char half_header[2] = {0x02, 0x00};
  ASSERT_EQ(::send(fd, half_header, sizeof(half_header), 0), 2);

  // The server closes its end within the idle budget: EOF on ours. The
  // 5s poll cap only bounds the test on failure.
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  ASSERT_GT(::poll(&pfd, 1, 5000), 0)
      << "server never closed the idle connection";
  char buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // clean EOF, no bytes
  ::close(fd);
  EXPECT_GT(idle_closed.value(), before);

  // The freed slot keeps serving well-behaved clients.
  Result<Client> client = Client::ConnectUnix(config.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  Request request;
  request.op = Op::kStats;
  Result<Response> response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok());

  server.Shutdown();
  server.Wait();
}

// One 18-byte frame (a RELATED instance claiming 2^32 - 1 values) must be
// answered with InvalidArgument on its own connection, and the server must
// keep serving and drain afterwards.
TEST(ServeServerTest, HostileFrameIsAnsweredAndServingContinues) {
  if (!ServerSupported()) GTEST_SKIP() << "socket server not compiled in";

  const Fixture fx = MakeFixture(FastConfig(), "serve_hostile.ctflb");
  QueryService service(OpenEngine(fx.bundle_path));

  ServerConfig config;
  config.socket_path = TempPath("serve_hostile.sock");
  config.num_threads = 2;
  Server server(&service, config);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectRaw(config.socket_path);
  ASSERT_GE(fd, 0);
  const std::string frame = Frame(InflatedInstanceRequest()).value();
  ASSERT_EQ(frame.size(), 18u);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));

  // The answer is an error frame; the 5s poll cap only bounds the test on
  // failure.
  FrameDecoder decoder;
  std::string answer;
  bool have_answer = false;
  while (!have_answer) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "no answer to the hostile frame";
    char buf[256];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(got, 0) << "connection closed without an answer";
    decoder.Append(buf, static_cast<size_t>(got));
    Result<bool> next = decoder.Next(&answer);
    ASSERT_TRUE(next.ok()) << next.status();
    have_answer = *next;
  }
  ::close(fd);
  const Result<Response> response = DecodeResponse(answer);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status.code(), StatusCode::kInvalidArgument);

  Result<Client> client = Client::ConnectUnix(config.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();
  Request request;
  request.op = Op::kStats;
  const Result<Response> stats = client->Call(request);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->status.ok());
  EXPECT_EQ(stats->stats.num_participants, 4u);
  EXPECT_GE(stats->stats.errors_total, 1u);

  server.Shutdown();
  server.Wait();
  EXPECT_FALSE(server.running());
}
#endif  // CTFL_SERVE_TEST_HAS_SOCKETS

TEST(ServeServerTest, TcpLoopbackServesAndShutsDownViaApi) {
  if (!ServerSupported()) GTEST_SKIP() << "socket server not compiled in";

  const Fixture fx = MakeFixture(FastConfig(), "serve_tcp.ctflb");
  QueryService service(OpenEngine(fx.bundle_path));

  ServerConfig config;
  config.port = 0;  // kernel-assigned
  config.num_threads = 2;
  Server server(&service, config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Result<Client> client = Client::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  Request request;
  request.op = Op::kStats;
  Result<Response> response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(response->stats.num_participants, 4u);

  server.Shutdown();
  server.Wait();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace serve
}  // namespace ctfl
