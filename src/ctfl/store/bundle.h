#ifndef CTFL_STORE_BUNDLE_H_
#define CTFL_STORE_BUNDLE_H_

// Contribution bundle: the persisted artifacts of one CTFL
// train-once/evaluate-many pass. A bundle snapshots everything the serving
// side needs to answer contribution and interpretability queries without
// retraining and without recomputing any activation vector:
//
//   meta    originating-run parameters (tau_w, delta, min_rule_weight,
//           dp_epsilon), the run's micro/macro scores and accuracies,
//           participant names, and the schema fingerprint
//   schema  the full feature schema (self-contained restore)
//   model   LogicalNetConfig + flat parameters (binary, bit-exact)
//   rules   the extracted rule model (r+/-, w+/-): per-coordinate support
//           class, vote weight, and symbolic text
//   train   per participant, per training record: label + rule-activation
//           bitset (the only training-data artifact that ever leaves a
//           client, paper section V)
//   tests   per reserved test instance: label, prediction, activation
//
// Bundles written before the query engine matched through the tracer also
// carry an `index` section (inverted rule -> record posting lists); readers
// skip it.
//
// File layout (version 1, little-endian):
//
//   magic "CTFLBNDL" | u32 version | u32 section_count
//   section table: { u32 name_len, name, u64 offset, u64 size, u32 crc32 }*
//   section payloads (offsets absolute, CRC-32/IEEE per payload)
//
// BundleWriter/BundleReader handle the container; WriteBundle/ReadBundle
// handle the typed sections. Readers validate magic, version, bounds, and
// every section CRC before any payload is decoded.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ctfl/nn/logical_net.h"
#include "ctfl/util/bitset.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace store {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// Container-level writer: named binary sections -> one bundle file.
class BundleWriter {
 public:
  /// Section names must be unique and non-empty (checked at Write).
  void AddSection(std::string name, std::string payload);

  Status Write(const std::string& path) const;

  /// In-memory serialization (what Write puts on disk).
  Result<std::string> Serialize() const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Container-level reader. Open() reads the whole file in one sized read,
/// validates the header and every section's bounds + CRC32, and exposes
/// the payloads as views into those bytes, which every copy of the reader
/// shares.
class BundleReader {
 public:
  static Result<BundleReader> Open(const std::string& path);
  static Result<BundleReader> Parse(std::string file_bytes,
                                    const std::string& origin);

  /// Payload bytes of `name` (copy), or NotFound.
  Result<std::string> Section(const std::string& name) const;
  /// Zero-copy payload view of `name`; valid while this reader (or any
  /// copy of it) is alive.
  Result<std::string_view> SectionView(const std::string& name) const;
  const std::vector<std::string>& section_names() const { return names_; }
  size_t file_bytes() const { return bytes_ == nullptr ? 0 : bytes_->size(); }

 private:
  std::shared_ptr<const std::string> bytes_;
  std::vector<std::string> names_;
  std::vector<std::pair<std::string, std::string_view>> sections_;
};

// ---------------------------------------------------------------------------
// Typed bundle content.
// ---------------------------------------------------------------------------

/// Originating-run parameters and headline results (section "meta").
struct BundleMeta {
  double tau_w = 0.9;
  int macro_delta = 1;
  double min_rule_weight = 1e-6;
  double dp_epsilon = 0.0;
  double global_accuracy = 0.0;
  double matched_accuracy = 0.0;
  uint64_t schema_fingerprint = 0;
  /// Digest of the FailurePlan the originating run trained under
  /// (FailurePlan::Fingerprint(); 0 = fault-free). Encoded as an optional
  /// trailing meta field: bundles written before failure injection
  /// existed decode with 0.
  uint64_t failure_plan_fingerprint = 0;
  std::vector<double> micro_scores;
  std::vector<double> macro_scores;
  std::vector<std::string> participant_names;
};

/// One extracted rule coordinate (Def. III.2 entry of (r+-, w+-)).
struct RuleSnapshot {
  int support_class = 1;
  double weight = 0.0;
  std::string text;  ///< symbolic form, e.g. "capital-gain > 21000"
};

/// One participant's uploaded tracing artifacts.
struct ParticipantRecords {
  std::vector<uint8_t> labels;      ///< one 0/1 label per training record
  std::vector<Bitset> activations;  ///< one bitset (num_rules) per record
  size_t size() const { return labels.size(); }
};

/// One reserved test instance's inference artifacts — exactly what a
/// tracing pass consumes, so the engine traces the decoded records as-is.
using TestRecord = TestForward;

/// Fully decoded bundle.
struct BundleContent {
  BundleMeta meta;
  SchemaPtr schema;
  LogicalNetConfig net_config;
  std::vector<double> params;
  double rule_bias = 0.0;
  std::vector<RuleSnapshot> rules;
  std::vector<ParticipantRecords> participants;
  std::vector<TestRecord> tests;

  int num_rules() const { return static_cast<int>(rules.size()); }
  int num_participants() const {
    return static_cast<int>(participants.size());
  }
  size_t total_train_records() const;
};

// ---------------------------------------------------------------------------
// Section payload codecs (shared with the streaming delta log).
//
// The delta-log header (src/ctfl/stream/) embeds a schema, model, train and
// tests payload so a StreamingScorer can bootstrap without a bundle; using
// the bundle's own codecs keeps the two containers bit-compatible and
// single-sources the formats.
// ---------------------------------------------------------------------------

std::string EncodeSchemaPayload(const FeatureSchema& schema);
Result<SchemaPtr> DecodeSchemaPayload(std::string_view payload);

std::string EncodeModelPayload(const LogicalNetConfig& net_config,
                               const std::vector<double>& params);
Status DecodeModelPayload(std::string_view payload,
                          LogicalNetConfig* net_config,
                          std::vector<double>* params);

std::string EncodeTrainPayload(
    const std::vector<ParticipantRecords>& participants);
Result<std::vector<ParticipantRecords>> DecodeTrainPayload(
    std::string_view payload, uint32_t num_rules);

std::string EncodeTestsPayload(const std::vector<TestRecord>& tests);
Result<std::vector<TestRecord>> DecodeTestsPayload(std::string_view payload,
                                                   uint32_t num_rules);

/// Encodes every section and writes the bundle file. Emits telemetry spans
/// (ctfl.bundle.encode / ctfl.bundle.write) and bumps ctfl.bundle.writes /
/// ctfl.bundle.bytes_written / ctfl.bundle.sections.
Status WriteBundle(const BundleContent& content, const std::string& path);

/// Reads + validates + decodes a bundle file. Emits ctfl.bundle.read span
/// and bumps ctfl.bundle.reads / ctfl.bundle.bytes_read. The model
/// section's shape is checked against the schema (ValidateNetShape)
/// before anything is built from it.
Result<BundleContent> ReadBundle(const std::string& path);

/// Rebuilds the trained LogicalNet from the bundle's schema + model
/// sections; parameters are bit-exact, so predictions and activations
/// match the originating run everywhere.
Result<LogicalNet> RestoreModel(const BundleContent& content);

}  // namespace store
}  // namespace ctfl

#endif  // CTFL_STORE_BUNDLE_H_
