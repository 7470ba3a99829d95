// A bounded, deterministic mutation test of every binary decoder: serve
// frames, bundles, delta logs and replay files (DESIGN.md §8.1), and of the
// model text loader, whose saved models also take line mutations. Each case
// seeds from the goldens under tests/data/ and from freshly encoded
// records, mutates them with bit flips, truncation at every offset,
// splices of two inputs, and the values 0, 1, 2^31 - 1, 2^32 - 1 and
// 2^64 - 1 written as u32 and u64 at every offset of inputs up to 4 KB and
// at seeded sample offsets of larger ones, and recomputes the CRCs of the
// mutated container bytes so mutations reach the record decoders instead
// of stopping at the CRC check.
//
// Every call must return a Status or a value and never abort, and its
// peak live allocation must stay under kBytesPerInputByte times its input
// plus kFixedBytes. This executable replaces the global operator new to
// measure that, so it runs as its own test binary. The iteration counts
// are fixed: nothing outside this file sets them.
//
// Inputs that ever broke a decoder are kept under tests/data/ and replayed
// by DecoderRegressionTest.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/nn/logical_net.h"
#include "ctfl/nn/serialize.h"
#include "ctfl/replay/replay_file.h"
#include "ctfl/serve/protocol.h"
#include "ctfl/store/bundle.h"
#include "ctfl/stream/delta_log.h"
#include "test_paths.h"

namespace {

// Live bytes handed out by operator new, and their peak since the last
// reset. Each block carries its size in a 16-byte header, which keeps the
// default new alignment. A request that would take the live bytes past
// g_limit fails (std::bad_alloc), so a decoder that lost a bound fails
// its case without allocating what it asked for.
constexpr size_t kHeaderBytes = 16;
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
std::atomic<int64_t> g_limit{INT64_MAX};

}  // namespace

// Every form a replacement must cover to pair with the deletes below (the
// nothrow ones too: under ASan, its own would not pair with free). Out of
// line, so that no inlined copy pairs a new-expression's pointer with the
// free call.
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  if (static_cast<int64_t>(size) >
      g_limit.load(std::memory_order_relaxed) -
          g_live.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  void* block = std::malloc(size + kHeaderBytes);
  if (block == nullptr) return nullptr;
  *static_cast<std::size_t*>(block) = size;
  const int64_t live =
      g_live.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed) +
      static_cast<int64_t>(size);
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeaderBytes;
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeaderBytes;
  g_live.fetch_sub(static_cast<int64_t>(*reinterpret_cast<std::size_t*>(block)),
                   std::memory_order_relaxed);
  std::free(block);
}
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace ctfl {
namespace {

// The allocation bound: peak live bytes of one decode call. The largest
// ratio a decoder reaches by design is a schema feature (about 80 bytes
// of FeatureSpec for its 9-byte minimum) or a participant name (32 bytes
// of std::string for its 4-byte length); the fixed part covers error
// strings and first-use telemetry registration.
constexpr int64_t kBytesPerInputByte = 16;
constexpr int64_t kFixedBytes = 64 << 10;

// Inputs up to this size are mutated at every offset; larger ones at their
// first kHeadOffsets offsets and kSampledOffsets seeded others.
constexpr size_t kEveryOffsetBytes = 4096;
constexpr size_t kHeadOffsets = 64;
constexpr size_t kSampledOffsets = 192;
constexpr int kSplices = 64;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  // A new file each time: truncating a written one can make the file system
  // flush it on close, which would dominate these cases' time.
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string DataPath(const std::string& name) {
  return std::string(CTFL_TEST_DATA_DIR) + "/" + name;
}

/// Little-endian `width`-byte `v` over `bytes` at `at`, clipped at the end.
void Put(std::string* bytes, size_t at, uint64_t v, int width) {
  for (int i = 0; i < width && at + i < bytes->size(); ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint64_t Get(const std::string& bytes, size_t at, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// Calls `visit` with every mutation of `input` (see the top of this
/// file); `others` are splice partners. Deterministic in `seed`.
void ForEachMutation(const std::string& input,
                     const std::vector<std::string>& others, uint64_t seed,
                     const std::function<void(const std::string&)>& visit) {
  std::mt19937_64 rng(seed);
  std::vector<size_t> offsets;
  if (input.size() <= kEveryOffsetBytes) {
    for (size_t at = 0; at < input.size(); ++at) offsets.push_back(at);
  } else {
    for (size_t at = 0; at < kHeadOffsets; ++at) offsets.push_back(at);
    for (size_t i = 0; i < kSampledOffsets; ++i) {
      offsets.push_back(rng() % input.size());
    }
  }
  constexpr uint64_t kValues[] = {0, 1, (uint64_t{1} << 31) - 1,
                                  (uint64_t{1} << 32) - 1, ~uint64_t{0}};
  std::string mutated;
  for (const size_t at : offsets) {
    visit(input.substr(0, at));
    mutated = input;
    mutated[at] = static_cast<char>(mutated[at] ^ (1 << (rng() % 8)));
    visit(mutated);
    for (const uint64_t v : kValues) {
      for (const int width : {4, 8}) {
        mutated = input;
        Put(&mutated, at, v, width);
        visit(mutated);
      }
    }
  }
  for (int i = 0; i < kSplices && !others.empty(); ++i) {
    const std::string& other = others[rng() % others.size()];
    visit(input.substr(0, rng() % (input.size() + 1)) +
          other.substr(rng() % (other.size() + 1)));
  }
}

/// Fails the test when `decode(input)` would allocate more than the bound
/// at its peak, and saves the input for a regression file.
void ExpectBounded(const char* what, const std::string& input,
                   const std::function<void(const std::string&)>& decode) {
  const int64_t bound =
      kBytesPerInputByte * static_cast<int64_t>(input.size()) + kFixedBytes;
  const int64_t base = g_live.load();
  g_peak.store(base);
  g_limit.store(base + bound);
  bool refused = false;
  try {
    decode(input);
  } catch (const std::bad_alloc&) {
    refused = true;
  }
  g_limit.store(INT64_MAX);
  const int64_t peak = g_peak.load() - base;
  if (refused || peak > bound) {
    const std::string path = TestTempPath(std::string(what) + ".broken");
    WriteFile(path, input);
    ADD_FAILURE() << what << ": a " << input.size()
                  << "-byte input asked for more than " << bound
                  << " bytes of live allocation; input saved to " << path;
  }
}

// ---------------------------------------------------------------------------
// CRC fix-ups: rewrite every CRC the container walk can reach, so that a
// mutation reaches the decoder behind it.
// ---------------------------------------------------------------------------

void FixBundleCrcs(std::string* b) {
  if (b->size() < 16) return;
  const uint64_t count = Get(*b, 12, 4);
  size_t pos = 16;
  for (uint64_t i = 0; i < count; ++i) {
    if (pos + 4 > b->size()) return;
    const uint64_t name_len = Get(*b, pos, 4);
    if (name_len > b->size() || pos + 4 + name_len + 20 > b->size()) return;
    const size_t at = pos + 4 + name_len;
    const uint64_t offset = Get(*b, at, 8);
    const uint64_t size = Get(*b, at + 8, 8);
    if (offset <= b->size() && size <= b->size() - offset) {
      Put(b, at + 16, store::Crc32(b->data() + offset, size), 4);
    }
    pos = at + 20;
  }
}

void FixDeltaLogCrcs(std::string* b) {
  size_t pos = 12;
  while (pos + 12 <= b->size()) {
    const uint64_t len = Get(*b, pos + 4, 4);
    if (len > b->size() - pos - 12) return;
    Put(b, pos + 8 + len, store::Crc32(b->data() + pos + 8, len), 4);
    pos += 12 + len;
  }
}

void FixReplayCrcs(std::string* b) {
  if (b->size() < 16) return;
  const uint64_t count = Get(*b, 12, 4);
  size_t pos = 16;
  for (uint64_t i = 0; i < count; ++i) {
    if (pos + 4 > b->size()) return;
    const uint64_t name_len = Get(*b, pos, 4);
    if (name_len > b->size() - pos - 4 || pos + 8 + name_len > b->size()) {
      return;
    }
    const size_t len_at = pos + 4 + name_len;
    const uint64_t len = Get(*b, len_at, 4);
    if (len > b->size() - len_at - 4 || len_at + 8 + len > b->size()) return;
    Put(b, len_at + 4 + len, store::Crc32(b->data() + len_at + 4, len), 4);
    pos = len_at + 8 + len;
  }
}

// ---------------------------------------------------------------------------
// Fresh seeds: small records of each format, small enough that every
// offset (so every count field) is mutated.
// ---------------------------------------------------------------------------

SchemaPtr SmallSchema() {
  return std::make_shared<const FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1),
                               FeatureSchema::Discrete("c", {"a", "b"})},
      "neg", "pos");
}

/// A consistent bundle over a 2-feature schema and an untrained small net:
/// two participants of three records, two tests.
store::BundleContent SmallBundle() {
  store::BundleContent content;
  content.schema = SmallSchema();
  content.net_config.tau_d = 2;
  content.net_config.logic_layers = {{3, 3}};
  content.net_config.seed = 5;
  const LogicalNet net(content.schema, content.net_config);
  content.params = net.GetParameters();
  const int num_rules = net.num_rules();
  for (int r = 0; r < num_rules; ++r) {
    content.rules.push_back({r % 2, 0.5 + r, "rule " + std::to_string(r)});
  }
  content.rule_bias = -0.25;
  for (int p = 0; p < 2; ++p) {
    store::ParticipantRecords records;
    for (int i = 0; i < 3; ++i) {
      Bitset row(num_rules);
      row.Set((p + i) % num_rules);
      records.labels.push_back(static_cast<uint8_t>((p + i) % 2));
      records.activations.push_back(row);
    }
    content.participants.push_back(records);
    content.meta.participant_names.push_back("P" + std::to_string(p));
    content.meta.micro_scores.push_back(0.5);
    content.meta.macro_scores.push_back(0.5);
  }
  for (int t = 0; t < 2; ++t) {
    store::TestRecord test;
    test.label = static_cast<uint8_t>(t);
    test.predicted = 1;
    test.activation = Bitset(num_rules);
    test.activation.Set(t);
    content.tests.push_back(test);
  }
  content.meta.schema_fingerprint = SchemaFingerprint(*content.schema);
  content.meta.failure_plan_fingerprint = 7;
  return content;
}

stream::DeltaHeader SmallHeader() {
  const store::BundleContent content = SmallBundle();
  stream::DeltaHeader header;
  header.config_digest = 11;
  header.schema_fingerprint = content.meta.schema_fingerprint;
  header.num_rules = static_cast<uint32_t>(content.num_rules());
  header.schema = content.schema;
  header.net_config = content.net_config;
  header.params = content.params;
  header.participant_names = content.meta.participant_names;
  header.participants = content.participants;
  header.tests = content.tests;
  return header;
}

stream::RoundDelta SmallRound(uint32_t number) {
  stream::RoundDelta round;
  round.round = number;
  round.clients_trained = 2;
  round.retries = 1;
  round.param_xors = {{0, 0x8000000000000000ull}, {3, 1}};
  round.train_flips = {{0, 1, 2}, {1, 0, 0}};
  round.test_activation_flips = {{1, 2}};
  round.predicted_flips = {0};
  return round;
}

serve::Response SmallReport() {
  serve::Response response;
  response.op = serve::Op::kEvaluate;
  response.request_id = 21;
  response.report.micro = {0.25, 0.75};
  response.report.macro = {0.5, 0.5};
  response.report.uncovered_rules = {{1, 0.5, "r1"}};
  store::ParticipantSummary p;
  p.name = "P0";
  p.beneficial = {{0, 0.25, "r0"}};
  p.harmful = {{2, 0.75, ""}};
  response.report.participants = {p, p};
  response.origin_micro = {0.25};
  response.origin_macro = {};
  return response;
}

/// The golden frames' payloads.
std::vector<std::string> GoldenFrames() {
  const std::string bytes = ReadFile(DataPath("golden_serve_v3.frames"));
  serve::FrameDecoder frames;
  frames.Append(bytes.data(), bytes.size());
  std::vector<std::string> payloads;
  std::string payload;
  while (frames.Next(&payload).value()) payloads.push_back(payload);
  return payloads;
}

// ---------------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------------

TEST(DecoderFuzzTest, ServeFramesReturnStatusWithinBound) {
  std::vector<std::string> seeds = GoldenFrames();
  ASSERT_EQ(seeds.size(), 11u);
  serve::Request request;
  request.op = serve::Op::kRelated;
  request.related.instance.values = {1.0, 2.0, 3.0};
  seeds.push_back(serve::EncodeRequest(request));
  seeds.push_back(serve::EncodeResponse(SmallReport()));
  int canonical = 0;
  for (size_t s = 0; s < seeds.size(); ++s) {
    ForEachMutation(seeds[s], seeds, 100 + s, [&](const std::string& bytes) {
      ExpectBounded("serve_request", bytes, [&](const std::string& in) {
        const Result<serve::Request> decoded = serve::DecodeRequest(in);
        // The request codec has one encoding: whatever decodes re-encodes
        // to the bytes it came from.
        if (decoded.ok()) {
          ++canonical;
          EXPECT_EQ(serve::EncodeRequest(*decoded), in);
        }
      });
      ExpectBounded("serve_response", bytes, [](const std::string& in) {
        (void)serve::DecodeResponse(in);
      });
    });
  }
  EXPECT_GT(canonical, 0);
}

TEST(DecoderFuzzTest, SmallBundleFilesReturnStatusWithinBound) {
  const std::string path = TestTempPath("fuzz_small.ctflb");
  ASSERT_TRUE(store::WriteBundle(SmallBundle(), path).ok());
  const std::string seed = ReadFile(path);
  ASSERT_LE(seed.size(), kEveryOffsetBytes);
  ASSERT_TRUE(store::ReadBundle(path).ok());
  const std::string golden = ReadFile(DataPath("golden_stream_v1.ctflb"));
  int decoded = 0;
  ForEachMutation(seed, {golden.substr(0, 4096)}, 200,
                  [&](const std::string& mutation) {
                    std::string bytes = mutation;
                    FixBundleCrcs(&bytes);
                    WriteFile(path, bytes);
                    ExpectBounded("bundle_file", bytes,
                                  [&](const std::string&) {
                                    decoded += store::ReadBundle(path).ok();
                                  });
                  });
  // Some mutations (a flipped score bit, say) still decode.
  EXPECT_GT(decoded, 0);
  std::remove(path.c_str());
}

TEST(DecoderFuzzTest, GoldenBundleSectionsReturnStatusWithinBound) {
  const std::string golden_path = DataPath("golden_stream_v1.ctflb");
  const store::BundleReader golden =
      store::BundleReader::Open(golden_path).value();
  const store::BundleContent content = store::ReadBundle(golden_path).value();
  const uint32_t num_rules = static_cast<uint32_t>(content.num_rules());
  std::vector<std::string> sections;
  for (const char* name : {"schema", "model", "train", "tests"}) {
    sections.push_back(golden.Section(name).value());
  }
  const std::function<void(const std::string&)> decoders[] = {
      [](const std::string& in) { (void)store::DecodeSchemaPayload(in); },
      [](const std::string& in) {
        LogicalNetConfig config;
        std::vector<double> params;
        (void)store::DecodeModelPayload(in, &config, &params);
      },
      [&](const std::string& in) {
        (void)store::DecodeTrainPayload(in, num_rules);
      },
      [&](const std::string& in) {
        (void)store::DecodeTestsPayload(in, num_rules);
      },
  };
  for (size_t s = 0; s < sections.size(); ++s) {
    ForEachMutation(sections[s], sections, 300 + s,
                    [&](const std::string& bytes) {
                      ExpectBounded("bundle_section", bytes, decoders[s]);
                    });
  }

  // The meta section decodes only inside ReadBundle: rewrite it into the
  // golden (its legacy index section left out) behind a recomputed CRC.
  // The rules section's layout is mutated at every offset by
  // SmallBundleFilesReturnStatusWithinBound.
  const std::string path = TestTempPath("fuzz_golden.ctflb");
  const auto rewritten = [&](const std::string& meta) {
    store::BundleWriter writer;
    for (const std::string& name : golden.section_names()) {
      if (name == "index") continue;
      writer.AddSection(name,
                        name == "meta" ? meta : golden.Section(name).value());
    }
    return writer.Serialize().value();
  };
  ForEachMutation(golden.Section("meta").value(), {}, 400,
                  [&](const std::string& meta) {
                    const std::string bytes = rewritten(meta);
                    WriteFile(path, bytes);
                    ExpectBounded("bundle_golden", bytes,
                                  [&](const std::string&) {
                                    (void)store::ReadBundle(path);
                                  });
                  });
  std::remove(path.c_str());
}

TEST(DecoderFuzzTest, DeltaLogsReturnStatusWithinBound) {
  // A fresh small log, mutated as a whole file behind recomputed CRCs.
  const std::string path = TestTempPath("fuzz_small.ctfld");
  {
    Result<stream::DeltaLogWriter> writer =
        stream::DeltaLogWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(writer->AppendHeader(SmallHeader()).ok());
    ASSERT_TRUE(writer->AppendRound(SmallRound(1)).ok());
    ASSERT_TRUE(writer->AppendRound(SmallRound(2)).ok());
  }
  const std::string seed = ReadFile(path);
  ASSERT_LE(seed.size(), kEveryOffsetBytes);
  ASSERT_TRUE(stream::ParseDeltaLog(seed, "seed").ok());
  int parsed = 0;
  ForEachMutation(seed, {}, 500, [&](const std::string& mutation) {
    std::string bytes = mutation;
    FixDeltaLogCrcs(&bytes);
    ExpectBounded("delta_log", bytes, [&](const std::string& in) {
      parsed += stream::ParseDeltaLog(in, "fuzz").ok();
    });
  });
  EXPECT_GT(parsed, 0);

  // The golden log's header and first round, through their decoders.
  const std::string golden = ReadFile(DataPath("golden_stream_v1.ctfld"));
  const uint64_t header_len = Get(golden, 16, 4);
  const std::string header = golden.substr(20, header_len);
  const size_t round_at = 12 + 12 + header_len;
  const std::string round =
      golden.substr(round_at + 8, Get(golden, round_at + 4, 4));
  ASSERT_TRUE(stream::DecodeHeader(header).ok());
  ASSERT_TRUE(stream::DecodeRound(round).ok());
  ForEachMutation(header, {round}, 501, [](const std::string& bytes) {
    ExpectBounded("delta_header", bytes, [](const std::string& in) {
      (void)stream::DecodeHeader(in);
    });
  });
  ForEachMutation(round, {header}, 502, [](const std::string& bytes) {
    ExpectBounded("delta_round", bytes, [](const std::string& in) {
      (void)stream::DecodeRound(in);
    });
  });
  std::remove(path.c_str());
}

TEST(DecoderFuzzTest, ReplayFilesReturnStatusWithinBound) {
  replay::ReplayFile file;
  file.has_spec = true;
  file.spec.source = replay::DataSource::kCsv;
  file.spec.train_path = "train.csv";
  file.has_outcome = true;
  file.outcome.micro = {0.5, 0.25};
  file.outcome.macro = {0.75};
  serve::Request request;
  request.op = serve::Op::kRelatedForTest;
  file.events.push_back({static_cast<uint8_t>(request.op),
                         serve::EncodeRequest(request), 99});
  file.events.push_back({4, "", 0});
  const std::vector<std::string> seeds = {
      ReadFile(DataPath("golden_replay_v1.ctflr")),
      ReadFile(DataPath("golden_replay_trailing.ctflr")),
      replay::EncodeReplay(file)};
  int decoded = 0;
  for (size_t s = 0; s < seeds.size(); ++s) {
    ASSERT_TRUE(replay::DecodeReplay(seeds[s]).ok()) << s;
    ForEachMutation(
        seeds[s], seeds, 600 + s, [&](const std::string& mutation) {
          std::string bytes = mutation;
          FixReplayCrcs(&bytes);
          ExpectBounded("replay", bytes, [&](const std::string& in) {
            decoded += replay::DecodeReplay(in).ok();
          });
        });
  }
  EXPECT_GT(decoded, 0);
}

/// Every line mutation of the model text `text`: each line dropped,
/// duplicated, swapped with the next and cut before each of its words, and
/// each of its numbers replaced by -1, 0, 2^31 - 1, 2^63, nan and inf.
void ForEachLineMutation(const std::string& text,
                         const std::function<void(const std::string&)>& visit) {
  std::vector<std::string> lines;
  for (size_t begin = 0; begin < text.size();) {
    const size_t end = text.find('\n', begin);
    lines.push_back(text.substr(begin, end - begin));
    begin = end == std::string::npos ? text.size() : end + 1;
  }
  auto join = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) out += part + "\n";
    return out;
  };
  const char* kNumbers[] = {"-1", "0", "2147483647", "9223372036854775808",
                            "nan", "inf"};
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> edited = lines;
    edited.erase(edited.begin() + i);
    visit(join(edited));
    edited = lines;
    edited.insert(edited.begin() + i, lines[i]);
    visit(join(edited));
    if (i + 1 < lines.size()) {
      edited = lines;
      std::swap(edited[i], edited[i + 1]);
      visit(join(edited));
    }
    // Word starts: cut before each, and replace each number's word.
    for (size_t at = 0; at < lines[i].size();) {
      const size_t end = std::min(lines[i].find(' ', at), lines[i].size());
      edited = lines;
      edited[i] = lines[i].substr(0, at);
      visit(join(edited));
      const std::string word = lines[i].substr(at, end - at);
      char* parsed = nullptr;
      std::strtod(word.c_str(), &parsed);
      if (!word.empty() && *parsed == '\0') {
        for (const char* number : kNumbers) {
          edited[i] = lines[i].substr(0, at) + number + lines[i].substr(end);
          visit(join(edited));
        }
      }
      at = end + 1;
    }
  }
}

TEST(DecoderFuzzTest, ModelTextReturnsStatusWithinBound) {
  const SchemaPtr schema = SmallSchema();
  LogicalNetConfig config;
  config.tau_d = 2;
  config.logic_layers = {{3, 3}};
  config.seed = 5;
  const std::string path = TestTempPath("model_text.txt");
  ASSERT_TRUE(SaveLogicalNet(LogicalNet(schema, config), path).ok());
  const std::string text = ReadFile(path);
  ASSERT_TRUE(LoadLogicalNet(schema, path).ok());
  int loaded = 0;
  auto decode = [&](const std::string& mutation) {
    WriteFile(path, mutation);
    ExpectBounded("model_text", mutation, [&](const std::string&) {
      loaded += LoadLogicalNet(schema, path).ok();
    });
  };
  ForEachLineMutation(text, decode);
  ForEachMutation(text, {}, 700, decode);
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Inputs that once broke a decoder.
// ---------------------------------------------------------------------------

// Each saved input decodes to an error within the allocation bound.
TEST(DecoderRegressionTest, SavedInputsReturnStatusWithinBound) {
  struct Saved {
    const char* file;
    std::function<Status(const std::string& path)> decode;
  };
  const Saved saved[] = {
      // A 79-byte replay file claiming 33,554,431 micro scores.
      {"replay_inflated_micro_count.ctflr",
       [](const std::string& path) {
         return replay::ReadReplayFile(path).status();
       }},
      // A bundle whose meta says 0 rules and 0 tests, with one participant
      // claiming 80,000 records over 10,000 label bytes: at 0 rules an
      // activation row was 0 bytes, so the record count was bounded only by
      // the label bits.
      {"bundle_zero_rules.ctflb",
       [](const std::string& path) {
         return store::ReadBundle(path).status();
       }},
      // A 96,026-byte model text whose shape (tau_d 1 over SmallSchema, one
      // layer of 16,000 conjunctions) agrees with its count of 96,010
      // parameters, followed by spaces only: the count was bounded by the
      // file's size, not by two bytes per parameter, and the net and a
      // count-sized vector were built before a value was read.
      {"model_inflated_params.txt",
       [](const std::string& path) {
         return LoadLogicalNet(SmallSchema(), path).status();
       }},
  };
  for (const Saved& s : saved) {
    const std::string path = DataPath(s.file);
    const std::string bytes = ReadFile(path);
    ASSERT_FALSE(bytes.empty()) << s.file;
    Status status = Status::OK();
    ExpectBounded(s.file, bytes,
                  [&](const std::string&) { status = s.decode(path); });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << s.file << ": " << status;
  }
}

}  // namespace
}  // namespace ctfl
