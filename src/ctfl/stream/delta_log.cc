#include "ctfl/stream/delta_log.h"

#include <cstring>
#include <fstream>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/string_util.h"
#include "ctfl/util/wire.h"

namespace ctfl {
namespace stream {
namespace {

constexpr char kMagic[8] = {'C', 'T', 'F', 'L', 'D', 'L', 'T', 'A'};
constexpr uint32_t kFormatVersion = 1;

// Record kinds of format v1. Readers skip kinds they do not know, so a
// future writer can append new record types without breaking old readers.
constexpr uint32_t kHeaderRecord = 1;
constexpr uint32_t kRoundRecord = 2;

// Framing bytes around every record payload: kind + length + crc.
constexpr size_t kRecordFraming = 4 + 4 + 4;

using ByteWriter = wire::Writer;

/// wire::Reader with the delta-log error-message prefix.
class ByteReader : public wire::Reader {
 public:
  explicit ByteReader(std::string_view data)
      : wire::Reader(data, "delta-log record") {}
};

telemetry::Counter& BytesWrittenCounter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global()
                                     .GetCounter("ctfl.stream.bytes_written");
  return c;
}
telemetry::Counter& RecordsWrittenCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.stream.records_written");
  return c;
}

}  // namespace

std::string EncodeHeader(const DeltaHeader& header) {
  ByteWriter w;
  w.U64(header.config_digest);
  w.U64(header.schema_fingerprint);
  w.U64(header.failure_plan_fingerprint);
  w.U32(header.num_rules);
  w.F64(header.tau_w);
  w.U8(header.use_dedup ? 1 : 0);
  w.U8(1);  // reserved: the retired use_max_miner knob's former default
  w.F64(header.min_rule_weight);
  w.F64(header.dp_epsilon);
  w.U64(header.dp_seed);
  w.U32(static_cast<uint32_t>(header.macro_delta));
  w.U32(static_cast<uint32_t>(header.participant_names.size()));
  for (const std::string& name : header.participant_names) w.Str(name);
  // Round-0 baseline, encoded with the bundle's own section codecs so the
  // two containers stay bit-compatible.
  w.Str(store::EncodeSchemaPayload(*header.schema));
  w.Str(store::EncodeModelPayload(header.net_config, header.params));
  w.Str(store::EncodeTrainPayload(header.participants));
  w.Str(store::EncodeTestsPayload(header.tests));
  return w.Take();
}

Result<DeltaHeader> DecodeHeader(std::string_view payload) {
  ByteReader r(payload);
  DeltaHeader header;
  CTFL_RETURN_IF_ERROR(r.U64(&header.config_digest));
  CTFL_RETURN_IF_ERROR(r.U64(&header.schema_fingerprint));
  CTFL_RETURN_IF_ERROR(r.U64(&header.failure_plan_fingerprint));
  CTFL_RETURN_IF_ERROR(r.U32(&header.num_rules));
  CTFL_RETURN_IF_ERROR(r.F64(&header.tau_w));
  uint8_t use_dedup = 0, reserved = 0;
  CTFL_RETURN_IF_ERROR(r.U8(&use_dedup));
  CTFL_RETURN_IF_ERROR(r.U8(&reserved));  // retired use_max_miner, ignored
  header.use_dedup = use_dedup != 0;
  CTFL_RETURN_IF_ERROR(r.F64(&header.min_rule_weight));
  CTFL_RETURN_IF_ERROR(r.F64(&header.dp_epsilon));
  CTFL_RETURN_IF_ERROR(r.U64(&header.dp_seed));
  uint32_t macro_delta = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&macro_delta));
  header.macro_delta = static_cast<int>(macro_delta);
  uint32_t names = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&names));
  header.participant_names.resize(names);
  for (std::string& name : header.participant_names) {
    CTFL_RETURN_IF_ERROR(r.Str(&name));
  }
  std::string schema_payload, model_payload, train_payload, tests_payload;
  CTFL_RETURN_IF_ERROR(r.Str(&schema_payload));
  CTFL_RETURN_IF_ERROR(r.Str(&model_payload));
  CTFL_RETURN_IF_ERROR(r.Str(&train_payload));
  CTFL_RETURN_IF_ERROR(r.Str(&tests_payload));
  CTFL_RETURN_IF_ERROR(r.ExpectEnd("delta-log header"));
  CTFL_ASSIGN_OR_RETURN(header.schema,
                        store::DecodeSchemaPayload(schema_payload));
  CTFL_RETURN_IF_ERROR(store::DecodeModelPayload(
      model_payload, &header.net_config, &header.params));
  CTFL_ASSIGN_OR_RETURN(
      header.participants,
      store::DecodeTrainPayload(train_payload, header.num_rules));
  CTFL_ASSIGN_OR_RETURN(
      header.tests, store::DecodeTestsPayload(tests_payload, header.num_rules));
  if (header.participants.size() != header.participant_names.size()) {
    return Status::InvalidArgument(
        "delta-log header: participant names/records disagree");
  }
  if (header.schema_fingerprint != 0 &&
      header.schema_fingerprint != SchemaFingerprint(*header.schema)) {
    return Status::InvalidArgument(
        "delta-log header: schema fingerprint disagrees with the embedded "
        "schema");
  }
  return header;
}

std::string EncodeRound(const RoundDelta& round) {
  ByteWriter w;
  w.U32(round.round);
  w.U8(round.degraded ? 1 : 0);
  w.U32(round.clients_trained);
  w.U32(round.clients_dropped);
  w.U32(round.retries);
  w.U64(round.param_xors.size());
  for (const auto& [idx, bits] : round.param_xors) {
    w.U32(idx);
    w.U64(bits);
  }
  w.U64(round.train_flips.size());
  for (const ActivationFlip& flip : round.train_flips) {
    w.U32(flip.participant);
    w.U32(flip.record);
    w.U32(flip.rule);
  }
  w.U64(round.test_activation_flips.size());
  for (const TestActivationFlip& flip : round.test_activation_flips) {
    w.U32(flip.test);
    w.U32(flip.rule);
  }
  w.U64(round.predicted_flips.size());
  for (uint32_t t : round.predicted_flips) w.U32(t);
  return w.Take();
}

Result<RoundDelta> DecodeRound(std::string_view payload) {
  ByteReader r(payload);
  RoundDelta round;
  CTFL_RETURN_IF_ERROR(r.U32(&round.round));
  uint8_t degraded = 0;
  CTFL_RETURN_IF_ERROR(r.U8(&degraded));
  round.degraded = degraded != 0;
  CTFL_RETURN_IF_ERROR(r.U32(&round.clients_trained));
  CTFL_RETURN_IF_ERROR(r.U32(&round.clients_dropped));
  CTFL_RETURN_IF_ERROR(r.U32(&round.retries));
  uint64_t count = 0;
  CTFL_RETURN_IF_ERROR(r.U64(&count));
  round.param_xors.resize(count);
  for (auto& [idx, bits] : round.param_xors) {
    CTFL_RETURN_IF_ERROR(r.U32(&idx));
    CTFL_RETURN_IF_ERROR(r.U64(&bits));
  }
  CTFL_RETURN_IF_ERROR(r.U64(&count));
  round.train_flips.resize(count);
  for (ActivationFlip& flip : round.train_flips) {
    CTFL_RETURN_IF_ERROR(r.U32(&flip.participant));
    CTFL_RETURN_IF_ERROR(r.U32(&flip.record));
    CTFL_RETURN_IF_ERROR(r.U32(&flip.rule));
  }
  CTFL_RETURN_IF_ERROR(r.U64(&count));
  round.test_activation_flips.resize(count);
  for (TestActivationFlip& flip : round.test_activation_flips) {
    CTFL_RETURN_IF_ERROR(r.U32(&flip.test));
    CTFL_RETURN_IF_ERROR(r.U32(&flip.rule));
  }
  CTFL_RETURN_IF_ERROR(r.U64(&count));
  round.predicted_flips.resize(count);
  for (uint32_t& t : round.predicted_flips) CTFL_RETURN_IF_ERROR(r.U32(&t));
  CTFL_RETURN_IF_ERROR(r.ExpectEnd("delta-log round"));
  return round;
}

// ---------------------------------------------------------------------------
// Container layer.
// ---------------------------------------------------------------------------

Result<DeltaLogWriter> DeltaLogWriter::Create(const std::string& path) {
  DeltaLogWriter writer;
  writer.path_ = path;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out.write(kMagic, sizeof(kMagic));
  ByteWriter preamble;
  preamble.U32(kFormatVersion);
  const std::string bytes = preamble.Take();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed: " + path);
  writer.bytes_written_ = sizeof(kMagic) + bytes.size();
  return writer;
}

Status DeltaLogWriter::AppendRecord(uint32_t kind,
                                    const std::string& payload) {
  // One whole record per append, flushed before returning: a crash
  // between appends leaves at worst a partial tail, which readers drop.
  ByteWriter w;
  w.U32(kind);
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string bytes = w.Take();
  bytes += payload;
  ByteWriter crc;
  crc.U32(store::Crc32(payload.data(), payload.size()));
  bytes += crc.Take();

  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) return Status::IoError("cannot open " + path_);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path_);
  bytes_written_ += bytes.size();
  BytesWrittenCounter().Add(static_cast<int64_t>(bytes.size()));
  RecordsWrittenCounter().Add(1);
  return Status::OK();
}

Status DeltaLogWriter::AppendHeader(const DeltaHeader& header) {
  if (header.schema == nullptr) {
    return Status::InvalidArgument("delta-log header has no schema");
  }
  return AppendRecord(kHeaderRecord, EncodeHeader(header));
}

Status DeltaLogWriter::AppendRound(const RoundDelta& round) {
  if (round.round == 0) {
    return Status::InvalidArgument("delta-log rounds are 1-based");
  }
  return AppendRecord(kRoundRecord, EncodeRound(round));
}

Result<DeltaLogContents> ReadDeltaLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return Status::IoError("read failed: " + path);
  return ParseDeltaLog(bytes, path);
}

Result<DeltaLogContents> ParseDeltaLog(std::string_view bytes,
                                       const std::string& origin) {
  CTFL_SPAN("ctfl.stream.parse");
  if (bytes.size() < sizeof(kMagic) + 4 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(origin + ": not a CTFL delta-log file");
  }
  {
    wire::Reader preamble(bytes.substr(sizeof(kMagic), 4), "delta-log");
    uint32_t version = 0;
    CTFL_RETURN_IF_ERROR(preamble.U32(&version));
    if (version > kFormatVersion) {
      return Status::InvalidArgument(
          StrFormat("%s: delta-log version %u is newer than this reader "
                    "(max %u)",
                    origin.c_str(), version, kFormatVersion));
    }
  }

  DeltaLogContents contents;
  bool saw_header = false;
  size_t pos = sizeof(kMagic) + 4;
  contents.bytes_consumed = pos;
  while (pos < bytes.size()) {
    // A record that does not fit in the remaining bytes is a partial tail
    // (crash mid-append): recover to the last whole record.
    if (bytes.size() - pos < kRecordFraming) break;
    wire::Reader frame(bytes.substr(pos, 8), "delta-log");
    uint32_t kind = 0, payload_len = 0;
    CTFL_RETURN_IF_ERROR(frame.U32(&kind));
    CTFL_RETURN_IF_ERROR(frame.U32(&payload_len));
    if (bytes.size() - pos - kRecordFraming < payload_len) break;
    const std::string_view payload = bytes.substr(pos + 8, payload_len);
    wire::Reader crc_reader(bytes.substr(pos + 8 + payload_len, 4),
                            "delta-log");
    uint32_t stored_crc = 0;
    CTFL_RETURN_IF_ERROR(crc_reader.U32(&stored_crc));
    const uint32_t crc = store::Crc32(payload.data(), payload.size());
    if (crc != stored_crc) {
      return Status::InvalidArgument(StrFormat(
          "%s: CRC32 mismatch in delta-log record at offset %zu (stored "
          "%08x, computed %08x)",
          origin.c_str(), pos, stored_crc, crc));
    }
    pos += kRecordFraming + payload_len;
    contents.bytes_consumed = pos;

    switch (kind) {
      case kHeaderRecord: {
        if (saw_header) {
          return Status::InvalidArgument(origin +
                                         ": duplicate delta-log header");
        }
        CTFL_ASSIGN_OR_RETURN(contents.header, DecodeHeader(payload));
        saw_header = true;
        break;
      }
      case kRoundRecord: {
        if (!saw_header) {
          return Status::InvalidArgument(
              origin + ": delta-log round precedes the header");
        }
        CTFL_ASSIGN_OR_RETURN(RoundDelta round, DecodeRound(payload));
        if (round.round != contents.rounds.size() + 1) {
          return Status::InvalidArgument(StrFormat(
              "%s: delta-log round %u out of order (expected %zu)",
              origin.c_str(), round.round, contents.rounds.size() + 1));
        }
        contents.rounds.push_back(std::move(round));
        break;
      }
      default:
        // Unknown record kind: tolerated (future writers may add kinds).
        ++contents.skipped_records;
        break;
    }
  }
  contents.truncated_bytes = bytes.size() - contents.bytes_consumed;
  if (!saw_header) {
    return Status::InvalidArgument(origin + ": delta-log has no header");
  }
  static telemetry::Counter& reads =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.stream.reads");
  reads.Add(1);
  return contents;
}

}  // namespace stream
}  // namespace ctfl
