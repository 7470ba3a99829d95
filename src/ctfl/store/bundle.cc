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

// Little-endian primitive encoding now lives in util/wire.h (shared with
// the serve wire protocol); these aliases keep the section codecs terse.
using ByteWriter = wire::Writer;

/// wire::Reader with the historical bundle error-message prefix.
class ByteReader : public wire::Reader {
 public:
  explicit ByteReader(std::string_view data)
      : wire::Reader(data, "bundle section") {}
};

// Minimum encoded sizes of the counted elements below.
constexpr size_t kF64Bytes = 8;
constexpr size_t kStrBytes = 4;                    // u32 length, no bytes
constexpr size_t kRuleBytes = 1 + kF64Bytes + kStrBytes;
constexpr size_t kFeatureBytes = kStrBytes + 1 + 4;  // name, type, u32 count

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

size_t BundleWriter::TotalBytes() const {
  size_t total = sizeof(kMagic) + 4 + 4;  // magic + version + count
  for (const auto& [name, payload] : sections_) {
    total += 4 + name.size() + 8 + 8 + 4;  // table entry
    total += payload.size();
  }
  return total;
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
  size_t table_bytes = 0;
  for (const auto& section : sections_) {
    table_bytes += 4 + section.first.size() + 8 + 8 + 4;
  }
  uint64_t offset = sizeof(kMagic) + 4 + 4 + table_bytes;

  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  ByteWriter header;
  header.U32(kFormatVersion);
  header.U32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    header.Str(name);
    header.U64(offset);
    header.U64(payload.size());
    header.U32(Crc32(payload.data(), payload.size()));
    offset += payload.size();
  }
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
  ByteReader in(bytes.substr(sizeof(kMagic)));
  uint32_t version = 0;
  uint32_t count = 0;
  CTFL_RETURN_IF_ERROR(in.U32(&version));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "%s: unsupported bundle version %u", origin.c_str(), version));
  }
  CTFL_RETURN_IF_ERROR(in.U32(&count));
  // A table entry is at least a u32 name length, two u64s and a u32 CRC.
  CTFL_RETURN_IF_ERROR(in.CheckCount(count, 24, "bundle section table entry"));
  struct Entry {
    std::string name;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
  };
  std::vector<Entry> entries(count);
  for (Entry& e : entries) {
    Status table = Status::OK();
    if (!(table = in.Str(&e.name)).ok() || !(table = in.U64(&e.offset)).ok() ||
        !(table = in.U64(&e.size)).ok() || !(table = in.U32(&e.crc)).ok()) {
      return Status::InvalidArgument(origin +
                                     ": truncated bundle section table");
    }
  }
  for (const Entry& e : entries) {
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

bool BundleReader::HasSection(const std::string& name) const {
  for (const auto& section : sections_) {
    if (section.first == name) return true;
  }
  return false;
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

std::string EncodeMeta(const BundleContent& c) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(c.participants.size()));
  w.U32(static_cast<uint32_t>(c.rules.size()));
  w.U64(c.tests.size());
  w.F64(c.meta.tau_w);
  w.U32(static_cast<uint32_t>(c.meta.macro_delta));
  w.F64(c.meta.min_rule_weight);
  w.F64(c.meta.dp_epsilon);
  w.F64(c.meta.global_accuracy);
  w.F64(c.meta.matched_accuracy);
  w.U64(c.meta.schema_fingerprint);
  w.U32(static_cast<uint32_t>(c.meta.micro_scores.size()));
  for (double v : c.meta.micro_scores) w.F64(v);
  w.U32(static_cast<uint32_t>(c.meta.macro_scores.size()));
  for (double v : c.meta.macro_scores) w.F64(v);
  w.U32(static_cast<uint32_t>(c.meta.participant_names.size()));
  for (const std::string& name : c.meta.participant_names) w.Str(name);
  // Trailing optional fields (decoders treat end-of-payload as defaults,
  // so pre-failure-injection bundles keep decoding).
  w.U64(c.meta.failure_plan_fingerprint);
  return w.Take();
}

Status DecodeMeta(std::string_view payload, BundleContent& c,
                  uint32_t* num_participants, uint32_t* num_rules,
                  uint64_t* num_tests) {
  ByteReader r(payload);
  CTFL_RETURN_IF_ERROR(r.U32(num_participants));
  CTFL_RETURN_IF_ERROR(r.U32(num_rules));
  CTFL_RETURN_IF_ERROR(r.U64(num_tests));
  CTFL_RETURN_IF_ERROR(r.F64(&c.meta.tau_w));
  uint32_t delta = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&delta));
  c.meta.macro_delta = static_cast<int>(delta);
  CTFL_RETURN_IF_ERROR(r.F64(&c.meta.min_rule_weight));
  CTFL_RETURN_IF_ERROR(r.F64(&c.meta.dp_epsilon));
  CTFL_RETURN_IF_ERROR(r.F64(&c.meta.global_accuracy));
  CTFL_RETURN_IF_ERROR(r.F64(&c.meta.matched_accuracy));
  CTFL_RETURN_IF_ERROR(r.U64(&c.meta.schema_fingerprint));
  uint32_t micro = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&micro));
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(micro, kF64Bytes, "meta section micro-score"));
  c.meta.micro_scores.resize(micro);
  for (double& v : c.meta.micro_scores) CTFL_RETURN_IF_ERROR(r.F64(&v));
  uint32_t macro = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&macro));
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(macro, kF64Bytes, "meta section macro-score"));
  c.meta.macro_scores.resize(macro);
  for (double& v : c.meta.macro_scores) CTFL_RETURN_IF_ERROR(r.F64(&v));
  uint32_t names = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&names));
  CTFL_RETURN_IF_ERROR(r.CheckCount(names, kStrBytes, "meta section name"));
  c.meta.participant_names.resize(names);
  for (std::string& name : c.meta.participant_names) {
    CTFL_RETURN_IF_ERROR(r.Str(&name));
  }
  // Per-participant vectors must be absent or exactly one per participant.
  if ((micro != 0 && micro != *num_participants) ||
      (macro != 0 && macro != *num_participants) ||
      names != *num_participants) {
    return Status::InvalidArgument(
        "meta: scores/names are not one per participant");
  }
  // Optional trailing fields: absent in bundles written before failure
  // injection existed (defaults already hold).
  if (!r.AtEnd()) {
    CTFL_RETURN_IF_ERROR(r.U64(&c.meta.failure_plan_fingerprint));
  }
  return r.ExpectEnd(kMetaSection);
}

std::string EncodeRules(const BundleContent& c) {
  ByteWriter w;
  w.F64(c.rule_bias);
  w.U32(static_cast<uint32_t>(c.rules.size()));
  for (const RuleSnapshot& rule : c.rules) {
    w.U8(static_cast<uint8_t>(rule.support_class));
    w.F64(rule.weight);
    w.Str(rule.text);
  }
  return w.Take();
}

Status DecodeRules(std::string_view payload, BundleContent& c) {
  ByteReader r(payload);
  CTFL_RETURN_IF_ERROR(r.F64(&c.rule_bias));
  uint32_t count = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&count));
  CTFL_RETURN_IF_ERROR(r.CheckCount(count, kRuleBytes, "rules section rule"));
  c.rules.resize(count);
  for (RuleSnapshot& rule : c.rules) {
    uint8_t support_class = 0;
    CTFL_RETURN_IF_ERROR(r.U8(&support_class));
    if (support_class > 1) {
      return Status::InvalidArgument("bundle rule has support class > 1");
    }
    rule.support_class = support_class;
    CTFL_RETURN_IF_ERROR(r.F64(&rule.weight));
    CTFL_RETURN_IF_ERROR(r.Str(&rule.text));
  }
  return r.ExpectEnd(kRulesSection);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public payload codecs (section bodies without the container framing),
// shared with the streaming delta-log header so both artifacts stay
// bit-compatible.
// ---------------------------------------------------------------------------

std::string EncodeSchemaPayload(const FeatureSchema& schema) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(schema.num_features()));
  for (const FeatureSpec& spec : schema.features()) {
    w.Str(spec.name);
    w.U8(spec.type == FeatureType::kDiscrete ? 1 : 0);
    if (spec.type == FeatureType::kDiscrete) {
      w.U32(static_cast<uint32_t>(spec.categories.size()));
      for (const std::string& category : spec.categories) w.Str(category);
    } else {
      w.F64(spec.lo);
      w.F64(spec.hi);
    }
  }
  w.Str(schema.label_name(0));
  w.Str(schema.label_name(1));
  return w.Take();
}

Result<SchemaPtr> DecodeSchemaPayload(std::string_view payload) {
  ByteReader r(payload);
  uint32_t num_features = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&num_features));
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(num_features, kFeatureBytes, "schema feature"));
  std::vector<FeatureSpec> features(num_features);
  for (FeatureSpec& spec : features) {
    CTFL_RETURN_IF_ERROR(r.Str(&spec.name));
    uint8_t type = 0;
    CTFL_RETURN_IF_ERROR(r.U8(&type));
    spec.type = type == 1 ? FeatureType::kDiscrete : FeatureType::kContinuous;
    if (spec.type == FeatureType::kDiscrete) {
      uint32_t ncat = 0;
      CTFL_RETURN_IF_ERROR(r.U32(&ncat));
      CTFL_RETURN_IF_ERROR(r.CheckCount(ncat, kStrBytes, "schema category"));
      spec.categories.resize(ncat);
      for (std::string& category : spec.categories) {
        CTFL_RETURN_IF_ERROR(r.Str(&category));
      }
    } else {
      CTFL_RETURN_IF_ERROR(r.F64(&spec.lo));
      CTFL_RETURN_IF_ERROR(r.F64(&spec.hi));
    }
  }
  std::string negative, positive;
  CTFL_RETURN_IF_ERROR(r.Str(&negative));
  CTFL_RETURN_IF_ERROR(r.Str(&positive));
  CTFL_RETURN_IF_ERROR(r.ExpectEnd(kSchemaSection));
  return std::make_shared<const FeatureSchema>(
      std::move(features), std::move(negative), std::move(positive));
}

std::string EncodeModelPayload(const LogicalNetConfig& net_config,
                               const std::vector<double>& params) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(net_config.tau_d));
  w.U32(static_cast<uint32_t>(net_config.fan_in));
  w.U8(net_config.input_skip ? 1 : 0);
  w.U64(net_config.seed);
  w.F64(net_config.linear_init_scale);
  w.U32(static_cast<uint32_t>(net_config.logic_layers.size()));
  for (const auto& [conj, disj] : net_config.logic_layers) {
    w.U32(static_cast<uint32_t>(conj));
    w.U32(static_cast<uint32_t>(disj));
  }
  w.U64(params.size());
  for (double v : params) w.F64(v);
  return w.Take();
}

Status DecodeModelPayload(std::string_view payload,
                          LogicalNetConfig* net_config,
                          std::vector<double>* params) {
  ByteReader r(payload);
  uint32_t tau_d = 0, fan_in = 0, num_layers = 0;
  uint8_t input_skip = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&tau_d));
  CTFL_RETURN_IF_ERROR(r.U32(&fan_in));
  CTFL_RETURN_IF_ERROR(r.U8(&input_skip));
  CTFL_RETURN_IF_ERROR(r.U64(&net_config->seed));
  CTFL_RETURN_IF_ERROR(r.F64(&net_config->linear_init_scale));
  CTFL_RETURN_IF_ERROR(r.U32(&num_layers));
  net_config->tau_d = static_cast<int>(tau_d);
  net_config->fan_in = static_cast<int>(fan_in);
  net_config->input_skip = input_skip != 0;
  net_config->logic_layers.clear();
  for (uint32_t l = 0; l < num_layers; ++l) {
    uint32_t conj = 0, disj = 0;
    CTFL_RETURN_IF_ERROR(r.U32(&conj));
    CTFL_RETURN_IF_ERROR(r.U32(&disj));
    net_config->logic_layers.emplace_back(static_cast<int>(conj),
                                          static_cast<int>(disj));
  }
  uint64_t param_count = 0;
  CTFL_RETURN_IF_ERROR(r.U64(&param_count));
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(param_count, kF64Bytes, "model section parameter"));
  params->resize(param_count);
  for (double& v : *params) CTFL_RETURN_IF_ERROR(r.F64(&v));
  return r.ExpectEnd(kModelSection);
}

std::string EncodeTrainPayload(
    const std::vector<ParticipantRecords>& participants) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(participants.size()));
  for (const ParticipantRecords& p : participants) {
    w.U64(p.labels.size());
    // Labels packed 8 per byte.
    uint8_t packed = 0;
    for (size_t i = 0; i < p.labels.size(); ++i) {
      if (p.labels[i]) packed |= static_cast<uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        w.U8(packed);
        packed = 0;
      }
    }
    if (p.labels.size() % 8 != 0) w.U8(packed);
    for (const Bitset& activation : p.activations) {
      w.Words(activation.words());
    }
  }
  return w.Take();
}

Result<std::vector<ParticipantRecords>> DecodeTrainPayload(
    std::string_view payload, uint32_t num_rules) {
  ByteReader r(payload);
  uint32_t num_participants = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&num_participants));
  // Each participant carries at least its u64 record count, and each record
  // a label bit plus its activation words.
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(num_participants, 8, "train section participant"));
  std::vector<ParticipantRecords> participants(num_participants);
  const size_t words_per_row = (num_rules + 63) / 64;
  for (ParticipantRecords& p : participants) {
    uint64_t num_records = 0;
    CTFL_RETURN_IF_ERROR(r.U64(&num_records));
    CTFL_RETURN_IF_ERROR(
        r.CheckCount(num_records / 8, 1, "train section record"));
    CTFL_RETURN_IF_ERROR(r.CheckCount(num_records, 8 * words_per_row,
                                      "train section record"));
    p.labels.resize(num_records);
    for (size_t i = 0; i < num_records; i += 8) {
      uint8_t packed = 0;
      CTFL_RETURN_IF_ERROR(r.U8(&packed));
      for (size_t b = 0; b < 8 && i + b < num_records; ++b) {
        p.labels[i + b] = (packed >> b) & 1;
      }
    }
    p.activations.reserve(num_records);
    for (uint64_t i = 0; i < num_records; ++i) {
      std::vector<uint64_t> words;
      CTFL_RETURN_IF_ERROR(r.Words(words_per_row, &words));
      CTFL_ASSIGN_OR_RETURN(Bitset activation,
                            Bitset::FromWords(num_rules, std::move(words)));
      p.activations.push_back(std::move(activation));
    }
  }
  CTFL_RETURN_IF_ERROR(r.ExpectEnd(kTrainSection));
  return participants;
}

std::string EncodeTestsPayload(const std::vector<TestRecord>& tests) {
  ByteWriter w;
  w.U64(tests.size());
  for (const TestRecord& t : tests) {
    w.U8(t.label);
    w.U8(t.predicted);
    w.Words(t.activation.words());
  }
  return w.Take();
}

Result<std::vector<TestRecord>> DecodeTestsPayload(std::string_view payload,
                                                   uint32_t num_rules) {
  ByteReader r(payload);
  uint64_t num_tests = 0;
  CTFL_RETURN_IF_ERROR(r.U64(&num_tests));
  const size_t words_per_row = (num_rules + 63) / 64;
  // Each test carries two label bytes plus its activation words.
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(num_tests, 2 + 8 * words_per_row, "tests section test"));
  std::vector<TestRecord> tests(num_tests);
  for (TestRecord& t : tests) {
    CTFL_RETURN_IF_ERROR(r.U8(&t.label));
    CTFL_RETURN_IF_ERROR(r.U8(&t.predicted));
    if (t.label > 1 || t.predicted > 1) {
      return Status::InvalidArgument("bundle test record label out of range");
    }
    std::vector<uint64_t> words;
    CTFL_RETURN_IF_ERROR(r.Words(words_per_row, &words));
    CTFL_ASSIGN_OR_RETURN(t.activation,
                          Bitset::FromWords(num_rules, std::move(words)));
  }
  CTFL_RETURN_IF_ERROR(r.ExpectEnd(kTestsSection));
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
  BundleWriter writer;
  writer.AddSection(kMetaSection, EncodeMeta(content));
  writer.AddSection(kSchemaSection, EncodeSchemaPayload(*content.schema));
  writer.AddSection(kModelSection,
                    EncodeModelPayload(content.net_config, content.params));
  writer.AddSection(kRulesSection, EncodeRules(content));
  writer.AddSection(kTrainSection, EncodeTrainPayload(content.participants));
  writer.AddSection(kTestsSection, EncodeTestsPayload(content.tests));
  return writer.Write(path);
}

Result<BundleContent> ReadBundle(const std::string& path) {
  CTFL_SPAN("ctfl.bundle.decode");
  CTFL_ASSIGN_OR_RETURN(const BundleReader reader, BundleReader::Open(path));
  BundleContent content;
  uint32_t num_participants = 0, num_rules = 0;
  uint64_t num_tests = 0;
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kMetaSection));
    CTFL_RETURN_IF_ERROR(DecodeMeta(payload, content, &num_participants,
                                    &num_rules, &num_tests));
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
    CTFL_RETURN_IF_ERROR(DecodeRules(payload, content));
  }
  if (content.rules.size() != num_rules) {
    return Status::InvalidArgument(
        path + ": rules section size disagrees with meta");
  }
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kTrainSection));
    CTFL_ASSIGN_OR_RETURN(content.participants,
                          DecodeTrainPayload(payload, num_rules));
  }
  if (content.participants.size() != num_participants) {
    return Status::InvalidArgument(
        path + ": train section participant count disagrees with meta");
  }
  {
    CTFL_ASSIGN_OR_RETURN(const std::string_view payload,
                          reader.SectionView(kTestsSection));
    CTFL_ASSIGN_OR_RETURN(content.tests, DecodeTestsPayload(payload, num_rules));
  }
  if (content.tests.size() != num_tests) {
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
