#include "ctfl/store/bundle.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <utility>

#include <gtest/gtest.h>

#include "ctfl/core/pipeline.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/store/snapshot.h"
#include "test_paths.h"

namespace ctfl {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

/// One trained CTFL run plus everything a snapshot needs.
struct Fixture {
  Federation fed;
  Dataset test;
  CtflReport report;
  std::vector<std::vector<Bitset>> activations;
  SnapshotOptions options;
};

Fixture MakeFixture(int participants = 3) {
  Rng rng(21);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 400, rng);
  Dataset test = GenerateSynthetic(spec, 120, rng);
  Rng prng(22);
  Federation fed =
      MakeFederation(PartitionSkewSample(all, participants, 0.7, prng));

  CtflConfig config;
  config.federated = false;
  config.central.epochs = 12;
  config.central.learning_rate = 0.05;
  config.net.logic_layers = {{10, 10}};
  config.net.seed = 5;
  config.tracer.tau_w = 0.85;
  CtflReport report = RunCtfl(fed, test, config).value();

  // Deterministic (no DP), so a fresh tracer reproduces the run's uploads.
  const ContributionTracer tracer(&report.model, &fed, config.tracer);

  Fixture fixture{std::move(fed), std::move(test), std::move(report),
                  tracer.train_activations(), SnapshotOptions{}};
  fixture.options.tau_w = config.tracer.tau_w;
  fixture.options.macro_delta = config.macro_delta;
  fixture.options.min_rule_weight = config.tracer.min_rule_weight;
  fixture.options.micro_scores = fixture.report.micro_scores;
  fixture.options.macro_scores = fixture.report.macro_scores;
  fixture.options.global_accuracy = fixture.report.trace.global_accuracy;
  fixture.options.matched_accuracy = fixture.report.trace.matched_accuracy;
  return fixture;
}

// ---------------------------------------------------------------------------
// Container level.
// ---------------------------------------------------------------------------

TEST(BundleContainerTest, Crc32MatchesKnownVectors) {
  EXPECT_EQ(Crc32("", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(BundleContainerTest, RoundTripPreservesBinarySections) {
  BundleWriter writer;
  const std::string binary("\x00\x01\xff\x7f payload\n\x00", 12);
  writer.AddSection("alpha", binary);
  writer.AddSection("beta", "");
  writer.AddSection("gamma", std::string(100000, 'x'));

  const std::string path = TempPath("container_roundtrip.ctflb");
  ASSERT_TRUE(writer.Write(path).ok());

  const Result<BundleReader> reader = BundleReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->section_names(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(reader->Section("alpha").value(), binary);
  EXPECT_EQ(reader->Section("beta").value(), "");
  EXPECT_EQ(reader->Section("gamma").value(), std::string(100000, 'x'));
  EXPECT_FALSE(reader->Section("delta").ok());
  std::remove(path.c_str());
}

TEST(BundleContainerTest, RejectsDuplicateOrEmptySectionNames) {
  BundleWriter dup;
  dup.AddSection("s", "1");
  dup.AddSection("s", "2");
  EXPECT_FALSE(dup.Serialize().ok());
  BundleWriter anon;
  anon.AddSection("", "1");
  EXPECT_FALSE(anon.Serialize().ok());
}

TEST(BundleContainerTest, RejectsCorruptionTruncationAndBadMagic) {
  BundleWriter writer;
  writer.AddSection("alpha", std::string(512, 'a'));
  writer.AddSection("beta", std::string(512, 'b'));
  const std::string path = TempPath("container_corrupt.ctflb");
  ASSERT_TRUE(writer.Write(path).ok());
  const std::string good = ReadFile(path);
  ASSERT_TRUE(BundleReader::Open(path).ok());

  // Flip one payload byte: the per-section CRC must catch it.
  std::string corrupt = good;
  corrupt[corrupt.size() - 10] ^= 0x40;
  WriteFile(path, corrupt);
  const Result<BundleReader> crc = BundleReader::Open(path);
  ASSERT_FALSE(crc.ok());
  EXPECT_NE(crc.status().message().find("CRC"), std::string::npos)
      << crc.status();

  // Truncations anywhere must fail cleanly, never crash or misread.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{11}, size_t{40},
                      good.size() / 2, good.size() - 1}) {
    WriteFile(path, good.substr(0, keep));
    EXPECT_FALSE(BundleReader::Open(path).ok()) << "kept " << keep;
  }

  // Wrong magic and wrong version.
  std::string magic = good;
  magic[0] = 'X';
  WriteFile(path, magic);
  EXPECT_FALSE(BundleReader::Open(path).ok());
  std::string version = good;
  version[8] = static_cast<char>(0xEE);
  WriteFile(path, version);
  EXPECT_FALSE(BundleReader::Open(path).ok());

  std::remove(path.c_str());
  EXPECT_FALSE(BundleReader::Open(TempPath("missing.ctflb")).ok());
}

// The single read path: Open (one sized read of the file) and Parse of the
// same bytes see byte-identical sections. The names of this case and the
// next two predate the retired mmap open mode.
TEST(BundleContainerTest, MmapAndStreamOpensAreByteIdentical) {
  BundleWriter writer;
  const std::string binary("\x00\x01\xff\x7f payload\n\x00", 12);
  writer.AddSection("alpha", binary);
  writer.AddSection("beta", "");
  writer.AddSection("gamma", std::string(100000, 'x'));
  const std::string path = TempPath("container_open_parse.ctflb");
  ASSERT_TRUE(writer.Write(path).ok());

  const Result<BundleReader> opened = BundleReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const Result<BundleReader> parsed = BundleReader::Parse(ReadFile(path), path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(opened->file_bytes(), ReadFile(path).size());
  EXPECT_EQ(opened->file_bytes(), parsed->file_bytes());
  EXPECT_EQ(opened->section_names(), parsed->section_names());
  for (const std::string& name : parsed->section_names()) {
    // Copying Section() and zero-copy SectionView() agree across paths.
    EXPECT_EQ(opened->Section(name).value(), parsed->Section(name).value());
    EXPECT_EQ(opened->SectionView(name).value(),
              parsed->SectionView(name).value());
  }
  std::remove(path.c_str());
}

TEST(BundleContainerTest, MmapViewsSurviveReaderCopies) {
  BundleWriter writer;
  writer.AddSection("alpha", std::string(4096, 'a'));
  const std::string path = TempPath("container_views.ctflb");
  ASSERT_TRUE(writer.Write(path).ok());

  std::string_view view;
  BundleReader copy = [&] {
    const BundleReader original = BundleReader::Open(path).value();
    view = original.SectionView("alpha").value();
    return original;  // the copy shares ownership of the file bytes
  }();
  // The original reader is gone; the view must still be backed.
  EXPECT_EQ(view, std::string(4096, 'a'));
  EXPECT_EQ(copy.SectionView("alpha").value().data(), view.data());
  std::remove(path.c_str());
}

TEST(BundleContainerTest, MmapOpenValidatesCrcLikeStream) {
  BundleWriter writer;
  writer.AddSection("alpha", std::string(512, 'a'));
  const std::string path = TempPath("container_crc.ctflb");
  ASSERT_TRUE(writer.Write(path).ok());
  std::string corrupt = ReadFile(path);
  corrupt[corrupt.size() - 10] ^= 0x40;
  WriteFile(path, corrupt);
  const Result<BundleReader> reader = BundleReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("CRC"), std::string::npos)
      << reader.status();
  std::remove(path.c_str());
}

// A section count no file could hold is rejected before the table is
// sized (a 16-byte file once asked for 0xffffffff entries).
TEST(BundleContainerTest, InflatedSectionCountIsInvalidArgument) {
  std::string bytes = "CTFLBNDL";
  bytes += std::string("\x01\x00\x00\x00\xff\xff\xff\xff", 8);
  const Result<BundleReader> reader = BundleReader::Parse(bytes, "inflated");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("section table entry"),
            std::string::npos)
      << reader.status();
}

// ---------------------------------------------------------------------------
// Typed level.
// ---------------------------------------------------------------------------

/// Rewrites the bundle at `path` into `out`, passing each section's
/// payload through `edit` (which may change it) and appending `extra`
/// sections; BundleWriter recomputes every CRC, so the result is
/// container-valid whatever the payloads say.
void RewriteBundle(
    const std::string& path, const std::string& out,
    const std::function<void(const std::string&, std::string*)>& edit,
    const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  const Result<BundleReader> reader = BundleReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  BundleWriter writer;
  for (const std::string& name : reader->section_names()) {
    std::string payload = reader->Section(name).value();
    edit(name, &payload);
    writer.AddSection(name, std::move(payload));
  }
  for (const auto& [name, payload] : extra) writer.AddSection(name, payload);
  ASSERT_TRUE(writer.Write(out).ok());
}

void PutU64(std::string* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PutU32(std::string* bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Writes the fixture's bundle, rewrites it with the u32 at `at` of
/// section `section` set to `value`, and expects ReadBundle to return
/// InvalidArgument naming `what`.
void ExpectU32EditRejected(const std::string& section, size_t at,
                           uint32_t value, const std::string& what) {
  const Fixture fx = MakeFixture();
  const std::string path = TempPath("inflate_" + section + "_src.ctflb");
  ASSERT_TRUE(WriteBundle(BuildBundleContent(fx.report.model, fx.fed,
                                             fx.test, fx.activations,
                                             fx.options)
                              .value(),
                          path)
                  .ok());
  const std::string out = TempPath("inflate_" + section + ".ctflb");
  RewriteBundle(path, out, [&](const std::string& name, std::string* bytes) {
    if (name == section) PutU32(bytes, at, value);
  });
  const Result<BundleContent> read = ReadBundle(out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find(what), std::string::npos)
      << read.status();
  EXPECT_EQ(QueryEngine::Open(out).status().code(),
            StatusCode::kInvalidArgument);
}

// Model payload: u32 tau_d, u32 fan_in, u8 input_skip, u64 seed, f64 init
// scale, u32 layer count, then (u32 conjunctions, u32 disjunctions) per
// layer. Each shape below once aborted a layer constructor or ended in
// std::bad_alloc; ReadBundle (and so QueryEngine::Open, behind `ctfl
// query` and ctfl_serve) now rejects it before building anything.
constexpr size_t kModelTauD = 0;
constexpr size_t kModelFirstConjunctions = 4 + 4 + 1 + 8 + 8 + 4;

TEST(BundleTypedTest, ZeroTauDIsInvalidArgument) {
  ExpectU32EditRejected("model", kModelTauD, 0, "tau_d");
}

TEST(BundleTypedTest, HugeTauDIsInvalidArgument) {
  ExpectU32EditRejected("model", kModelTauD, 1u << 30, "inputs");
}

TEST(BundleTypedTest, UnsignedMaxConjunctionWidthIsInvalidArgument) {
  ExpectU32EditRejected("model", kModelFirstConjunctions, 0xffffffffu,
                        "layer widths");
}

// RestoreModel checks the content it is given, decoded or not.
TEST(BundleTypedTest, RestoreModelRejectsBadShape) {
  const Fixture fx = MakeFixture();
  BundleContent content = BuildBundleContent(fx.report.model, fx.fed,
                                             fx.test, fx.activations,
                                             fx.options)
                              .value();
  content.net_config.logic_layers = {{0, 0}};
  const Result<LogicalNet> restored = RestoreModel(content);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(BundleTypedTest, SnapshotRoundTripIsBitExact) {
  const Fixture fx = MakeFixture();
  const Result<BundleContent> built = BuildBundleContent(
      fx.report.model, fx.fed, fx.test, fx.activations, fx.options);
  ASSERT_TRUE(built.ok()) << built.status();

  const std::string path = TempPath("typed_roundtrip.ctflb");
  ASSERT_TRUE(WriteBundle(*built, path).ok());
  const Result<BundleContent> loaded = ReadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Meta: originating parameters and scores, bit-for-bit.
  EXPECT_EQ(loaded->meta.tau_w, fx.options.tau_w);
  EXPECT_EQ(loaded->meta.macro_delta, fx.options.macro_delta);
  EXPECT_EQ(loaded->meta.min_rule_weight, fx.options.min_rule_weight);
  EXPECT_EQ(loaded->meta.dp_epsilon, fx.options.dp_epsilon);
  EXPECT_EQ(loaded->meta.micro_scores, fx.report.micro_scores);
  EXPECT_EQ(loaded->meta.macro_scores, fx.report.macro_scores);
  EXPECT_EQ(loaded->meta.global_accuracy, fx.report.trace.global_accuracy);
  EXPECT_EQ(loaded->meta.matched_accuracy,
            fx.report.trace.matched_accuracy);
  EXPECT_EQ(loaded->meta.schema_fingerprint,
            SchemaFingerprint(*fx.fed[0].data.schema()));
  ASSERT_EQ(loaded->meta.participant_names.size(), fx.fed.size());
  for (size_t p = 0; p < fx.fed.size(); ++p) {
    EXPECT_EQ(loaded->meta.participant_names[p], fx.fed[p].name);
  }

  // Model parameters: bit-exact.
  EXPECT_EQ(loaded->params, fx.report.model.GetParameters());

  // Rules: one snapshot per coordinate with the model's class + weight.
  ASSERT_EQ(loaded->num_rules(), fx.report.model.num_rules());
  for (int j = 0; j < loaded->num_rules(); ++j) {
    EXPECT_EQ(loaded->rules[j].support_class,
              fx.report.model.RuleClass(j));
    EXPECT_EQ(loaded->rules[j].weight, fx.report.model.RuleWeight(j));
    EXPECT_EQ(loaded->rules[j].text, built->rules[j].text);
  }

  // Train section: labels + the exact uploaded activation bitsets.
  ASSERT_EQ(loaded->participants.size(), fx.fed.size());
  for (size_t p = 0; p < fx.fed.size(); ++p) {
    const Dataset& data = fx.fed[p].data;
    ASSERT_EQ(loaded->participants[p].size(), data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(loaded->participants[p].labels[i],
                static_cast<uint8_t>(data.instance(i).label));
      EXPECT_EQ(loaded->participants[p].activations[i],
                fx.activations[p][i]);
    }
  }

  // Tests section: deployed inference artifacts.
  ASSERT_EQ(loaded->tests.size(), fx.test.size());
  for (size_t t = 0; t < fx.test.size(); ++t) {
    EXPECT_EQ(loaded->tests[t].label,
              static_cast<uint8_t>(fx.test.instance(t).label));
    EXPECT_EQ(loaded->tests[t].predicted,
              static_cast<uint8_t>(
                  fx.report.model.Predict(fx.test.instance(t))));
    EXPECT_EQ(loaded->tests[t].activation,
              fx.report.model.RuleActivations(fx.test.instance(t)));
  }

  // No posting index is written any more.
  const Result<BundleReader> reader = BundleReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE(reader->Section("index").ok());
  std::remove(path.c_str());
}

// ReadBundle decodes the written content bit for bit: re-encoding it
// reproduces the file byte for byte. The name predates the retired open
// modes.
TEST(BundleTypedTest, ReadBundleModesDecodeBitIdentically) {
  const Fixture fx = MakeFixture();
  const Result<BundleContent> built = BuildBundleContent(
      fx.report.model, fx.fed, fx.test, fx.activations, fx.options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string path = TempPath("typed_reread.ctflb");
  ASSERT_TRUE(WriteBundle(*built, path).ok());

  const Result<BundleContent> read = ReadBundle(path);
  ASSERT_TRUE(read.ok()) << read.status();
  const std::string rewritten = TempPath("typed_reread_rewritten.ctflb");
  ASSERT_TRUE(WriteBundle(*read, rewritten).ok());
  EXPECT_EQ(ReadFile(rewritten), ReadFile(path));
  EXPECT_EQ(read->params, built->params);
  std::remove(path.c_str());
  std::remove(rewritten.c_str());
}

TEST(BundleTypedTest, FailurePlanFingerprintRoundTrips) {
  Fixture fx = MakeFixture();
  fx.options.failure_plan_fingerprint = 0xdeadbeefcafef00dULL;
  const Result<BundleContent> built = BuildBundleContent(
      fx.report.model, fx.fed, fx.test, fx.activations, fx.options);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->meta.failure_plan_fingerprint, 0xdeadbeefcafef00dULL);

  const std::string path = TempPath("fp_roundtrip.ctflb");
  ASSERT_TRUE(WriteBundle(*built, path).ok());
  const Result<BundleContent> loaded = ReadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.failure_plan_fingerprint, 0xdeadbeefcafef00dULL);
}

TEST(BundleTypedTest, MetaWithoutFailureFingerprintDecodesToZero) {
  // Bundles written before failure injection existed carry a meta section
  // that ends right after the participant names. Simulate one by slicing
  // the trailing 8-byte fingerprint off a fresh bundle's meta payload: the
  // optional-field decode must land on fingerprint = 0, not an error.
  const Fixture fx = MakeFixture();
  const Result<BundleContent> built = BuildBundleContent(
      fx.report.model, fx.fed, fx.test, fx.activations, fx.options);
  ASSERT_TRUE(built.ok()) << built.status();
  const std::string path = TempPath("fp_legacy.ctflb");
  ASSERT_TRUE(WriteBundle(*built, path).ok());

  const std::string legacy_path = TempPath("fp_legacy_rewritten.ctflb");
  RewriteBundle(path, legacy_path,
                [](const std::string& name, std::string* payload) {
                  if (name == "meta") {
                    ASSERT_GE(payload->size(), 8u);
                    payload->resize(payload->size() - 8);  // trailing u64
                  }
                });

  const Result<BundleContent> loaded = ReadBundle(legacy_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.failure_plan_fingerprint, 0u);
  EXPECT_EQ(loaded->meta.participant_names.size(), fx.fed.size());
}

// Bundles written before the query engine matched through the tracer carry
// an `index` section of posting lists. Such a bundle must open and answer
// every query bit-identically to the same bundle without one.
TEST(BundleTypedTest, PostingIndexIsSoundAndComplete) {
  const Fixture fx = MakeFixture();
  const BundleContent content =
      BuildBundleContent(fx.report.model, fx.fed, fx.test, fx.activations,
                         fx.options)
          .value();
  const std::string path = TempPath("no_index.ctflb");
  ASSERT_TRUE(WriteBundle(content, path).ok());

  // The old index layout: u32 rule count | u64 posting count | u64
  // offsets[rules + 1] | u32 ascending global record ids per rule.
  std::vector<std::vector<uint32_t>> postings(content.num_rules());
  uint32_t id = 0;
  for (const ParticipantRecords& records : content.participants) {
    for (const Bitset& activation : records.activations) {
      activation.ForEachSetBit([&](size_t j) { postings[j].push_back(id); });
      ++id;
    }
  }
  std::string index;
  const auto put = [&index](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      index.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  uint64_t total = 0;
  for (const auto& list : postings) total += list.size();
  put(postings.size(), 4);
  put(total, 8);
  uint64_t offset = 0;
  put(offset, 8);
  for (const auto& list : postings) put(offset += list.size(), 8);
  for (const auto& list : postings) {
    for (uint32_t record : list) put(record, 4);
  }
  const std::string old_path = TempPath("old_index.ctflb");
  RewriteBundle(path, old_path, [](const std::string&, std::string*) {},
                {{"index", index}});

  const Result<QueryEngine> plain = QueryEngine::Open(path);
  ASSERT_TRUE(plain.ok()) << plain.status();
  const Result<QueryEngine> old = QueryEngine::Open(old_path);
  ASSERT_TRUE(old.ok()) << old.status();
  for (const double tau_w : {-1.0, 0.6}) {
    EvalOptions eval;
    eval.tau_w = tau_w;
    const QueryReport a = plain->Evaluate(eval);
    const QueryReport b = old->Evaluate(eval);
    EXPECT_EQ(a.micro, b.micro);
    EXPECT_EQ(a.macro, b.macro);
    EXPECT_EQ(a.global_accuracy, b.global_accuracy);
    EXPECT_EQ(a.matched_accuracy, b.matched_accuracy);
    EXPECT_EQ(a.uncovered_tests, b.uncovered_tests);
    EXPECT_EQ(a.keys, b.keys);
    EXPECT_EQ(a.tau_w_checks, b.tau_w_checks);
    EXPECT_EQ(a.records_scanned, b.records_scanned);
    ASSERT_EQ(a.participants.size(), b.participants.size());
    for (size_t p = 0; p < a.participants.size(); ++p) {
      EXPECT_EQ(a.participants[p].useless_ratio,
                b.participants[p].useless_ratio);
      ASSERT_EQ(a.participants[p].beneficial.size(),
                b.participants[p].beneficial.size());
      for (size_t i = 0; i < a.participants[p].beneficial.size(); ++i) {
        EXPECT_EQ(a.participants[p].beneficial[i].rule,
                  b.participants[p].beneficial[i].rule);
        EXPECT_EQ(a.participants[p].beneficial[i].frequency,
                  b.participants[p].beneficial[i].frequency);
      }
    }
    for (size_t t = 0; t < content.tests.size(); ++t) {
      QueryOptions options;
      options.tau_w = tau_w;
      options.max_records = 1000;
      const RelatedResult x = plain->RelatedForTest(t, options);
      const RelatedResult y = old->RelatedForTest(t, options);
      EXPECT_EQ(x.related_count, y.related_count);
      EXPECT_EQ(x.total_related, y.total_related);
      EXPECT_EQ(x.support_weight, y.support_weight);
      ASSERT_EQ(x.records.size(), y.records.size());
      for (size_t i = 0; i < x.records.size(); ++i) {
        EXPECT_EQ(x.records[i].participant, y.records[i].participant);
        EXPECT_EQ(x.records[i].local_index, y.records[i].local_index);
      }
    }
  }
  EXPECT_EQ(plain->Evaluate().micro, fx.report.micro_scores);
}

// A section rewritten with a record count its payload cannot hold — CRC
// valid, so only the decoder can catch it — is an InvalidArgument, not an
// allocation of 2^50 records.
TEST(BundleTypedTest, InflatedTrainRecordCountIsRejected) {
  const Fixture fx = MakeFixture();
  const std::string path = TempPath("inflate_train_src.ctflb");
  ASSERT_TRUE(WriteBundle(BuildBundleContent(fx.report.model, fx.fed,
                                             fx.test, fx.activations,
                                             fx.options)
                              .value(),
                          path)
                  .ok());
  const std::string out = TempPath("inflate_train.ctflb");
  // Train payload: u32 participant count, then participant 0's u64 count.
  RewriteBundle(path, out, [](const std::string& name, std::string* bytes) {
    if (name == "train") PutU64(bytes, 4, uint64_t{1} << 50);
  });
  Result<BundleContent> read = ReadBundle(out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("record count"), std::string::npos)
      << read.status();

  RewriteBundle(path, out, [](const std::string& name, std::string* bytes) {
    if (name == "train") {
      for (int i = 0; i < 4; ++i) (*bytes)[i] = static_cast<char>(0xff);
    }
  });
  read = ReadBundle(out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST(BundleTypedTest, InflatedRuleCountIsRejected) {
  // Rules payload: f64 bias, then the u32 rule count.
  ExpectU32EditRejected("rules", 8, 0xffffffffu, "rule count");
}

TEST(BundleTypedTest, InflatedMetaScoreCountIsRejected) {
  // Meta payload: u32 participants, u32 rules, u64 tests, f64 tau_w,
  // u32 delta, four f64s and the u64 schema fingerprint, then the u32
  // micro-score count.
  ExpectU32EditRejected("meta", 68, 0xffffffffu, "micro-score count");
}

TEST(BundleTypedTest, InflatedSchemaFeatureCountIsRejected) {
  // Schema payload: the u32 feature count first.
  ExpectU32EditRejected("schema", 0, 0xffffffffu, "feature count");
}

TEST(BundleTypedTest, InflatedTestCountIsRejected) {
  const Fixture fx = MakeFixture();
  const std::string path = TempPath("inflate_tests_src.ctflb");
  ASSERT_TRUE(WriteBundle(BuildBundleContent(fx.report.model, fx.fed,
                                             fx.test, fx.activations,
                                             fx.options)
                              .value(),
                          path)
                  .ok());
  const std::string out = TempPath("inflate_tests.ctflb");
  // Tests payload: u64 test count first.
  RewriteBundle(path, out, [](const std::string& name, std::string* bytes) {
    if (name == "tests") PutU64(bytes, 0, uint64_t{1} << 50);
  });
  const Result<BundleContent> read = ReadBundle(out);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("test count"), std::string::npos)
      << read.status();
}

// A rule count of 0 makes an activation row 0 bytes, which once left a
// train section's record count bounded only by one label bit a record: a
// CRC-valid bundle claiming 80,000 records over 10 KB of labels decoded
// into 80,000 empty activations. No model has zero rules, so the train
// and tests decoders reject the count before sizing anything.
TEST(BundleTypedTest, ZeroRuleCountIsInvalidArgument) {
  const Fixture fx = MakeFixture();
  BundleContent content = BuildBundleContent(fx.report.model, fx.fed,
                                             fx.test, fx.activations,
                                             fx.options)
                              .value();
  content.rules.clear();
  content.tests.clear();
  ParticipantRecords inflated;
  inflated.labels.assign(80000, 1);
  inflated.activations.assign(80000, Bitset(0));
  content.participants = {inflated};
  content.meta.participant_names = {"P0"};
  content.meta.micro_scores.clear();
  content.meta.macro_scores.clear();
  const std::string path = TempPath("zero_rules.ctflb");
  ASSERT_TRUE(WriteBundle(content, path).ok());

  const Result<BundleContent> read = ReadBundle(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("rule count"), std::string::npos)
      << read.status();
  EXPECT_EQ(QueryEngine::Open(path).status().code(),
            StatusCode::kInvalidArgument);

  // Both shared decoders, as the delta-log header calls them.
  const Result<std::vector<ParticipantRecords>> train =
      DecodeTrainPayload(EncodeTrainPayload(content.participants), 0);
  ASSERT_FALSE(train.ok());
  EXPECT_EQ(train.status().code(), StatusCode::kInvalidArgument);
  TestRecord test;
  test.activation = Bitset(0);
  const Result<std::vector<TestRecord>> tests =
      DecodeTestsPayload(EncodeTestsPayload({test, test}), 0);
  ASSERT_FALSE(tests.ok());
  EXPECT_EQ(tests.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tests.status().message().find("rule count"), std::string::npos)
      << tests.status();
  std::remove(path.c_str());
}

TEST(BundleTypedTest, RestoreModelReproducesInference) {
  const Fixture fx = MakeFixture();
  const std::string path = TempPath("typed_restore.ctflb");
  ASSERT_TRUE(
      WriteBundle(BuildBundleContent(fx.report.model, fx.fed, fx.test,
                                     fx.activations, fx.options)
                      .value(),
                  path)
          .ok());
  const BundleContent loaded = ReadBundle(path).value();
  const Result<LogicalNet> restored = RestoreModel(loaded);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->GetParameters(), fx.report.model.GetParameters());
  for (size_t t = 0; t < fx.test.size(); ++t) {
    const Instance& inst = fx.test.instance(t);
    EXPECT_EQ(restored->Predict(inst), fx.report.model.Predict(inst));
    EXPECT_EQ(restored->RuleActivations(inst),
              fx.report.model.RuleActivations(inst));
  }
  std::remove(path.c_str());
}

TEST(BundleTypedTest, BuildValidatesShapes) {
  const Fixture fx = MakeFixture();

  // Participant count mismatch.
  std::vector<std::vector<Bitset>> short_activations = fx.activations;
  short_activations.pop_back();
  EXPECT_FALSE(BuildBundleContent(fx.report.model, fx.fed, fx.test,
                                  short_activations, fx.options)
                   .ok());

  // Per-participant record count mismatch.
  std::vector<std::vector<Bitset>> uneven = fx.activations;
  uneven[0].pop_back();
  EXPECT_FALSE(BuildBundleContent(fx.report.model, fx.fed, fx.test, uneven,
                                  fx.options)
                   .ok());

  // Activation width mismatch.
  std::vector<std::vector<Bitset>> narrow = fx.activations;
  narrow[0][0] = Bitset(3);
  EXPECT_FALSE(BuildBundleContent(fx.report.model, fx.fed, fx.test, narrow,
                                  fx.options)
                   .ok());

  // Score vectors must be empty or one per participant.
  SnapshotOptions bad_scores = fx.options;
  bad_scores.micro_scores.push_back(0.0);
  EXPECT_FALSE(BuildBundleContent(fx.report.model, fx.fed, fx.test,
                                  fx.activations, bad_scores)
                   .ok());

  // Empty scores are fine (bench fixtures never allocate).
  SnapshotOptions no_scores = fx.options;
  no_scores.micro_scores.clear();
  no_scores.macro_scores.clear();
  EXPECT_TRUE(BuildBundleContent(fx.report.model, fx.fed, fx.test,
                                 fx.activations, no_scores)
                  .ok());
}

TEST(BundleTypedTest, ReadRejectsCrossSectionInconsistency) {
  const Fixture fx = MakeFixture();
  BundleContent content =
      BuildBundleContent(fx.report.model, fx.fed, fx.test, fx.activations,
                         fx.options)
          .value();
  const std::string path = TempPath("typed_inconsistent.ctflb");

  // A tests section one record short of the count meta declares.
  BundleContent fewer = content;
  fewer.tests.pop_back();
  const std::string fewer_path = TempPath("typed_fewer_tests.ctflb");
  ASSERT_TRUE(WriteBundle(fewer, fewer_path).ok());
  ASSERT_TRUE(WriteBundle(content, path).ok());
  const std::string spliced = TempPath("typed_spliced.ctflb");
  const std::string short_tests =
      BundleReader::Open(fewer_path).value().Section("tests").value();
  RewriteBundle(path, spliced,
                [&](const std::string& name, std::string* bytes) {
                  if (name == "tests") *bytes = short_tests;
                });
  EXPECT_FALSE(ReadBundle(spliced).ok());

  // Meta participant names out of sync with the train section.
  BundleContent extra = content;
  extra.meta.participant_names.push_back("ghost");
  ASSERT_TRUE(WriteBundle(extra, path).ok());
  EXPECT_FALSE(ReadBundle(path).ok());
  std::remove(path.c_str());
}

TEST(BundleTypedTest, PipelineEmitsBundleWhenAsked) {
  Rng rng(31);
  const SyntheticSpec spec = TwoRuleSpec();
  const Dataset all = GenerateSynthetic(spec, 300, rng);
  const Dataset test = GenerateSynthetic(spec, 80, rng);
  Rng prng(32);
  const Federation fed = MakeFederation(PartitionUniform(all, 3, prng));

  CtflConfig config;
  config.federated = false;
  config.central.epochs = 8;
  config.net.logic_layers = {{8, 8}};
  config.net.seed = 2;
  config.bundle_out = TempPath("pipeline_emit.ctflb");
  const CtflReport report = RunCtfl(fed, test, config).value();
  ASSERT_TRUE(report.bundle_status.ok()) << report.bundle_status;
  EXPECT_GT(report.bundle_bytes, 0u);

  const Result<BundleContent> loaded = ReadBundle(config.bundle_out);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.micro_scores, report.micro_scores);
  EXPECT_EQ(loaded->meta.macro_scores, report.macro_scores);
  EXPECT_EQ(loaded->meta.global_accuracy, report.trace.global_accuracy);
  EXPECT_EQ(loaded->num_participants(), 3);
  std::remove(config.bundle_out.c_str());

  // Unwritable path: the run still succeeds, the status records why.
  CtflConfig bad = config;
  bad.bundle_out = "/nonexistent-dir/bundle.ctflb";
  const CtflReport failed = RunCtfl(fed, test, bad).value();
  EXPECT_FALSE(failed.bundle_status.ok());
  EXPECT_EQ(failed.micro_scores.size(), 3u);
}

}  // namespace
}  // namespace store
}  // namespace ctfl
