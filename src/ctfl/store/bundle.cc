#include "ctfl/store/bundle.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/file_io.h"
#include "ctfl/util/string_util.h"
#include "ctfl/util/wire.h"

namespace ctfl {
namespace store {
namespace {

constexpr char kMagic[8] = {'C', 'T', 'F', 'L', 'B', 'N', 'D', 'L'};
constexpr uint32_t kFormatVersion = 1;

// Section names (fixed vocabulary of format v1).
constexpr const char* kMetaSection = "meta";
constexpr const char* kSchemaSection = "schema";
constexpr const char* kModelSection = "model";
constexpr const char* kRulesSection = "rules";
constexpr const char* kTrainSection = "train";
constexpr const char* kTestsSection = "tests";

constexpr char kContext[] = "bundle section";

// Minimum encoded sizes of the counted elements below.
constexpr size_t kF64Bytes = 8;
constexpr size_t kStrBytes = 4;                    // u32 length, no bytes
constexpr size_t kRuleBytes = 1 + kF64Bytes + kStrBytes;
constexpr size_t kFeatureBytes = kStrBytes + 1 + 4;  // name, type, u32 count
constexpr size_t kTableEntryBytes = kStrBytes + 8 + 8 + 4;

/// One section-table entry: u32 name length | name | u64 offset | u64 size
/// | u32 crc32 of the payload.
struct TableEntry {
  std::string name;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
};

template <class IO, wire::Is<TableEntry> T>
void Fields(IO& io, T& entry) {
  io.Str(entry.name);
  io.U64(entry.offset);
  io.U64(entry.size);
  io.U32(entry.crc);
}

constexpr auto kTableEntry = [](auto& io, auto& entry) { Fields(io, entry); };

telemetry::Counter& BytesWrittenCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global()
                                     .GetCounter("ctfl.bundle.bytes_written");
  return c;
}
telemetry::Counter& BytesReadCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global()
                                     .GetCounter("ctfl.bundle.bytes_read");
  return c;
}
telemetry::Counter& SectionsCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.bundle.sections");
  return c;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Container layer.
// ---------------------------------------------------------------------------

void BundleWriter::AddSection(std::string name, std::string payload) {
  sections_.emplace_back(std::move(name), std::move(payload));
}

Result<std::string> BundleWriter::Serialize() const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].first.empty()) {
      return Status::InvalidArgument("bundle section name must be non-empty");
    }
    for (size_t j = i + 1; j < sections_.size(); ++j) {
      if (sections_[i].first == sections_[j].first) {
        return Status::InvalidArgument("duplicate bundle section " +
                                       sections_[i].first);
      }
    }
  }
  // Header + table size determine the first payload offset.
  uint64_t offset = sizeof(kMagic) + 4 + 4;
  for (const auto& section : sections_) {
    offset += kTableEntryBytes + section.first.size();
  }
  std::vector<TableEntry> table;
  for (const auto& [name, payload] : sections_) {
    table.push_back(TableEntry{name, offset, payload.size(),
                               Crc32(payload.data(), payload.size())});
    offset += payload.size();
  }
  wire::Encoder header;
  header.U32(kFormatVersion);
  header.Seq32(table, kTableEntryBytes, "section table entry", kTableEntry);

  std::string buf(kMagic, sizeof(kMagic));
  buf += header.Take();
  for (const auto& section : sections_) buf += section.second;
  return buf;
}

Status BundleWriter::Write(const std::string& path) const {
  CTFL_SPAN("ctfl.bundle.write");
  CTFL_ASSIGN_OR_RETURN(const std::string bytes, Serialize());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed: " + path);
  BytesWrittenCounter().Add(static_cast<int64_t>(bytes.size()));
  SectionsCounter().Add(static_cast<int64_t>(sections_.size()));
  static telemetry::Counter& writes =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.bundle.writes");
  writes.Add(1);
  return Status::OK();
}

Result<BundleReader> BundleReader::Open(const std::string& path) {
  CTFL_SPAN("ctfl.bundle.read");
  CTFL_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return Parse(std::move(bytes), path);
}

Result<BundleReader> BundleReader::Parse(std::string file_bytes,
                                         const std::string& origin) {
  BundleReader reader;
  reader.bytes_ = std::make_shared<const std::string>(std::move(file_bytes));
  const std::string_view bytes = *reader.bytes_;
  if (bytes.size() < sizeof(kMagic) + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(origin + ": not a CTFL bundle file");
  }
  // The table is followed by the payloads, so its decoder stops short of
  // the end of the file.
  wire::Decoder in(bytes.substr(sizeof(kMagic)),
                   origin + ": bundle section table");
  uint32_t version = 0;
  in.U32(version);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: unsupported bundle version %u", origin.c_str(), version));
  }
  std::vector<TableEntry> entries;
  in.Seq32(entries, kTableEntryBytes, "section table entry", kTableEntry);
  CTFL_RETURN_IF_ERROR(in.status());
  for (const TableEntry& e : entries) {
    if (e.offset > bytes.size() || e.size > bytes.size() - e.offset) {
      return Status::InvalidArgument(
          StrFormat("%s: section '%s' exceeds file bounds (truncated file?)",
                    origin.c_str(), e.name.c_str()));
    }
    const std::string_view payload = bytes.substr(e.offset, e.size);
    const uint32_t crc = Crc32(payload.data(), payload.size());
    if (crc != e.crc) {
      return Status::InvalidArgument(StrFormat(
          "%s: CRC32 mismatch in section '%s' (stored %08x, computed %08x)",
          origin.c_str(), e.name.c_str(), e.crc, crc));
    }
    reader.names_.push_back(e.name);
    reader.sections_.emplace_back(e.name, payload);
  }
  BytesReadCounter().Add(static_cast<int64_t>(bytes.size()));
  static telemetry::Counter& reads =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.bundle.reads");
  reads.Add(1);
  return reader;
}

Result<std::string> BundleReader::Section(const std::string& name) const {
  CTFL_ASSIGN_OR_RETURN(const std::string_view view, SectionView(name));
  return std::string(view);
}

Result<std::string_view> BundleReader::SectionView(
    const std::string& name) const {
  for (const auto& section : sections_) {
    if (section.first == name) return section.second;
  }
  return Status::NotFound("bundle has no section '" + name + "'");
}

// ---------------------------------------------------------------------------
// Typed sections.
// ---------------------------------------------------------------------------

size_t BundleContent::total_train_records() const {
  size_t total = 0;
  for (const ParticipantRecords& p : participants) total += p.size();
  return total;
}

namespace {

/// Bytes of one activation row: ceil(num_rules / 64) words.
size_t RowBytes(uint32_t num_rules) {
  return 8 * ((size_t{num_rules} + 63) / 64);
}

/// The meta section's shape counts, checked against the other sections.
struct MetaCounts {
  uint32_t participants = 0;
  uint32_t rules = 0;
  uint64_t tests = 0;
};

template <class IO, wire::Is<MetaCounts> C, wire::Is<BundleMeta> M>
void Fields(IO& io, C& counts, M& meta) {
  io.U32(counts.participants);
  io.U32(counts.rules);
  io.U64(counts.tests);
  io.F64(meta.tau_w);
  io.U32(meta.macro_delta);
  io.F64(meta.min_rule_weight);
  io.F64(meta.dp_epsilon);
  io.F64(meta.global_accuracy);
  io.F64(meta.matched_accuracy);
  io.U64(meta.schema_fingerprint);
  io.Seq32(meta.micro_scores, kF64Bytes, "meta section micro-score",
           wire::AsF64);
  io.Seq32(meta.macro_scores, kF64Bytes, "meta section macro-score",
           wire::AsF64);
  io.Seq32(meta.participant_names, kStrBytes, "meta section name",
           wire::AsStr);
  // Bundles written before failure injection existed end here and decode
  // with a fingerprint of 0.
  io.TrailingU64(meta.failure_plan_fingerprint);
}

template <class IO, wire::Is<RuleSnapshot> T>
void Fields(IO& io, T& rule) {
  io.U8(rule.support_class);
  io.Check(rule.support_class <= 1, "bundle rule has support class > 1");
  io.F64(rule.weight);
  io.Str(rule.text);
}

/// The rules section: f64 bias | u32 count | rules.
template <class IO, class Bias, wire::Is<std::vector<RuleSnapshot>> R>
void Fields(IO& io, Bias& bias, R& rules) {
  io.F64(bias);
  io.Seq32(rules, kRuleBytes, "rules section rule",
           [](auto& io, auto& rule) { Fields(io, rule); });
}

template <class IO, wire::Is<FeatureSpec> T>
void Fields(IO& io, T& spec) {
  io.Str(spec.name);
  // 1 = discrete; any other byte reads as continuous.
  uint8_t discrete = spec.type == FeatureType::kDiscrete ? 1 : 0;
  io.U8(discrete);
  if constexpr (IO::kDecoding) {
    spec.type = discrete == 1 ? FeatureType::kDiscrete
                              : FeatureType::kContinuous;
  }
  if (spec.type == FeatureType::kDiscrete) {
    io.Seq32(spec.categories, kStrBytes, "schema category", wire::AsStr);
  } else {
    io.F64(spec.lo);
    io.F64(spec.hi);
  }
}

/// The schema section: u32 count | features | the two label names.
template <class IO, wire::Is<std::vector<FeatureSpec>> F, class S>
void Fields(IO& io, F& features, S& negative, S& positive) {
  io.Seq32(features, kFeatureBytes, "schema feature",
           [](auto& io, auto& spec) { Fields(io, spec); });
  io.Str(negative);
  io.Str(positive);
}

/// The model section: the net's shape and seed, then every parameter.
template <class IO, wire::Is<LogicalNetConfig> C,
          wire::Is<std::vector<double>> P>
void Fields(IO& io, C& config, P& params) {
  io.U32(config.tau_d);
  io.U32(config.fan_in);
  io.U8(config.input_skip);
  io.U64(config.seed);
  io.F64(config.linear_init_scale);
  io.Seq32(config.logic_layers, 8, "model section layer",
           [](auto& io, auto& layer) {
             io.U32(layer.first);   // conjunctions
             io.U32(layer.second);  // disjunctions
           });
  io.Seq64(params, kF64Bytes, "model section parameter", wire::AsF64);
}

/// The train section: u32 participant count, then per participant a u64
/// record count, the labels packed 8 a byte, and one activation row per
/// record. A rule count of 0 would make a row 0 bytes and leave the record
/// count unbounded, and no model has zero rules, so it is an error.
template <class IO, wire::Is<std::vector<ParticipantRecords>> T>
void Fields(IO& io, T& participants, uint32_t num_rules) {
  io.Check(num_rules > 0, "bundle train section has a rule count of 0");
  const size_t row_bytes = RowBytes(num_rules);
  io.Seq32(participants, 8, "train section participant",
           [&](auto& io, auto& p) {
             const size_t n = io.Count64(p.labels.size(), row_bytes,
                                         "train section record");
             io.Flags(p.labels, n);
             io.Elements(p.activations, n, [&](auto& io, auto& row) {
               io.Bits(row, num_rules);
             });
           });
}

/// The tests section: u64 count | per test: label, prediction, activation.
template <class IO, wire::Is<std::vector<TestRecord>> T>
void Fields(IO& io, T& tests, uint32_t num_rules) {
  io.Check(num_rules > 0, "bundle tests section has a rule count of 0");
  io.Seq64(tests, 2 + RowBytes(num_rules), "tests section test",
           [&](auto& io, auto& t) {
             io.U8(t.label);
             io.U8(t.predicted);
             io.Check(t.label <= 1 && t.predicted <= 1,
                      "bundle test record label out of range");
             io.Bits(t.activation, num_rules);
           });
}

}  // namespace

// ---------------------------------------------------------------------------
// Public payload codecs (section bodies without the container framing),
// shared with the streaming delta-log header so both artifacts stay
// bit-compatible.
// ---------------------------------------------------------------------------

std::string EncodeSchemaPayload(const FeatureSchema& schema) {
  return wire::Encode([&](auto& io) {
    Fields(io, schema.features(), schema.label_name(0), schema.label_name(1));
  });
}

Result<SchemaPtr> DecodeSchemaPayload(std::string_view payload) {
  std::vector<FeatureSpec> features;
  std::string negative, positive;
  CTFL_RETURN_IF_ERROR(
      wire::Decode(payload, kContext, kSchemaSection, [&](auto& io) {
        Fields(io, features, negative, positive);
      }));
  return std::make_shared<const FeatureSchema>(
      std::move(features), std::move(negative), std::move(positive));
}

std::string EncodeModelPayload(const LogicalNetConfig& net_config,
                               const std::vector<double>& params) {
  return wire::Encode([&](auto& io) { Fields(io, net_config, params); });
}

Status DecodeModelPayload(std::string_view payload,
                          LogicalNetConfig* net_config,
                          std::vector<double>* params) {
  return wire::Decode(payload, kContext, kModelSection, [&](auto& io) {
    Fields(io, *net_config, *params);
  });
}

std::string EncodeTrainPayload(
    const std::vector<ParticipantRecords>& participants) {
  // num_rules bounds decoding only: the encoder writes each row as it is.
  return wire::Encode([&](auto& io) { Fields(io, participants, 0u); });
}

Result<std::vector<ParticipantRecords>> DecodeTrainPayload(
    std::string_view payload, uint32_t num_rules) {
  std::vector<ParticipantRecords> participants;
  CTFL_RETURN_IF_ERROR(
      wire::Decode(payload, kContext, kTrainSection, [&](auto& io) {
        Fields(io, participants, num_rules);
      }));
  return participants;
}

std::string EncodeTestsPayload(const std::vector<TestRecord>& tests) {
  return wire::Encode([&](auto& io) { Fields(io, tests, 0u); });
}

Result<std::vector<TestRecord>> DecodeTestsPayload(std::string_view payload,
                                                   uint32_t num_rules) {
  std::vector<TestRecord> tests;
  CTFL_RETURN_IF_ERROR(
      wire::Decode(payload, kContext, kTestsSection,
                   [&](auto& io) { Fields(io, tests, num_rules); }));
  return tests;
}

Status WriteBundle(const BundleContent& content, const std::string& path) {
  CTFL_SPAN("ctfl.bundle.encode");
  if (content.schema == nullptr) {
    return Status::InvalidArgument("bundle content has no schema");
  }
  if (content.meta.schema_fingerprint != 0 &&
      content.meta.schema_fingerprint != SchemaFingerprint(*content.schema)) {
    return Status::InvalidArgument(
        "bundle meta fingerprint disagrees with the schema section");
  }
  for (const ParticipantRecords& p : content.participants) {
    if (p.labels.size() != p.activations.size()) {
      return Status::InvalidArgument(
          "participant label/activation counts disagree");
    }
  }
  const MetaCounts counts{static_cast<uint32_t>(content.participants.size()),
                          static_cast<uint32_t>(content.rules.size()),
                          content.tests.size()};
  BundleWriter writer;
  writer.AddSection(kMetaSection, wire::Encode([&](auto& io) {
                      Fields(io, counts, content.meta);
                    }));
  writer.AddSection(kSchemaSection, EncodeSchemaPayload(*content.schema));
  writer.AddSection(kModelSection,
                    EncodeModelPayload(content.net_config, content.params));
  writer.AddSection(kRulesSection, wire::Encode([&](auto& io) {
                      Fields(io, content.rule_bias, content.rules);
                    }));
  writer.AddSection(kTrainSection, EncodeTrainPayload(content.participants));
  writer.AddSection(kTestsSection, EncodeTestsPayload(content.tests));
  return writer.Write(path);
}

Result<BundleContent> ReadBundle(const std::string& path) {
  CTFL_SPAN("ctfl.bundle.decode");
  CTFL_ASSIGN_OR_RETURN(const BundleReader reader, BundleReader::Open(path));
  BundleContent content;
  MetaCounts counts;
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kMetaSection));
    CTFL_RETURN_IF_ERROR(
        wire::Decode(payload, kContext, kMetaSection,
                     [&](auto& io) { Fields(io, counts, content.meta); }));
  }
  // Per-participant vectors must be absent or exactly one per participant.
  const BundleMeta& meta = content.meta;
  if ((!meta.micro_scores.empty() &&
       meta.micro_scores.size() != counts.participants) ||
      (!meta.macro_scores.empty() &&
       meta.macro_scores.size() != counts.participants) ||
      meta.participant_names.size() != counts.participants) {
    return Status::InvalidArgument(
        "meta: scores/names are not one per participant");
  }
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kSchemaSection));
    CTFL_ASSIGN_OR_RETURN(content.schema, DecodeSchemaPayload(payload));
  }
  if (content.meta.schema_fingerprint != 0 &&
      content.meta.schema_fingerprint != SchemaFingerprint(*content.schema)) {
    return Status::InvalidArgument(
        path + ": schema fingerprint disagrees with the schema section");
  }
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kModelSection));
    CTFL_RETURN_IF_ERROR(
        DecodeModelPayload(payload, &content.net_config, &content.params));
  }
  CTFL_RETURN_IF_ERROR(ValidateNetShape(*content.schema, content.net_config,
                                        content.params.size()));
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kRulesSection));
    CTFL_RETURN_IF_ERROR(
        wire::Decode(payload, kContext, kRulesSection, [&](auto& io) {
          Fields(io, content.rule_bias, content.rules);
        }));
  }
  if (content.rules.size() != counts.rules) {
    return Status::InvalidArgument(
        path + ": rules section size disagrees with meta");
  }
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kTrainSection));
    CTFL_ASSIGN_OR_RETURN(content.participants,
                          DecodeTrainPayload(payload, counts.rules));
  }
  if (content.participants.size() != counts.participants) {
    return Status::InvalidArgument(
        path + ": train section participant count disagrees with meta");
  }
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kTestsSection));
    CTFL_ASSIGN_OR_RETURN(content.tests,
                          DecodeTestsPayload(payload, counts.rules));
  }
  if (content.tests.size() != counts.tests) {
    return Status::InvalidArgument(
        path + ": tests section size disagrees with meta");
  }
  // An `index` section (posting lists, written by older versions) is
  // CRC-checked with the container and otherwise ignored.
  return content;
}

Result<LogicalNet> RestoreModel(const BundleContent& content) {
  if (content.schema == nullptr) {
    return Status::FailedPrecondition("bundle content has no schema");
  }
  CTFL_RETURN_IF_ERROR(ValidateNetShape(*content.schema, content.net_config,
                                        content.params.size()));
  LogicalNet net(content.schema, content.net_config);
  net.SetParameters(content.params);
  if (net.num_rules() != content.num_rules()) {
    return Status::InvalidArgument(
        "bundle rule count does not match the restored model");
  }
  return net;
}

}  // namespace store
}  // namespace ctfl
