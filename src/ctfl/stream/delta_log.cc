#include "ctfl/stream/delta_log.h"

#include <cstring>
#include <fstream>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/file_io.h"
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

constexpr char kContext[] = "delta-log record";

/// The round-0 baseline: four bundle section payloads (store/bundle.h),
/// each a length-prefixed string of the header.
struct Baseline {
  std::string schema;
  std::string model;
  std::string train;
  std::string tests;
};

template <class IO, wire::Is<DeltaHeader> H, wire::Is<Baseline> B>
void Fields(IO& io, H& header, B& baseline) {
  io.U64(header.config_digest);
  io.U64(header.schema_fingerprint);
  io.U64(header.failure_plan_fingerprint);
  io.U32(header.num_rules);
  io.F64(header.tau_w);
  // Reserved: the retired use_dedup and use_max_miner knobs. Written as
  // their former default 1; logs written while they existed may carry 0,
  // so any value reads.
  uint8_t retired = 1;
  io.U8(retired);
  io.U8(retired);
  io.F64(header.min_rule_weight);
  io.F64(header.dp_epsilon);
  io.U64(header.dp_seed);
  io.U32(header.macro_delta);
  // Each name carries at least its u32 length.
  io.Seq32(header.participant_names, 4, "header participant name",
           wire::AsStr);
  io.Str(baseline.schema);
  io.Str(baseline.model);
  io.Str(baseline.train);
  io.Str(baseline.tests);
}

template <class IO, wire::Is<RoundDelta> T>
void Fields(IO& io, T& round) {
  io.U32(round.round);
  io.U8(round.degraded);
  io.U32(round.clients_trained);
  io.U32(round.clients_dropped);
  io.U32(round.retries);
  io.Seq64(round.param_xors, 4 + 8, "round parameter xor",
           [](auto& io, auto& x) {
             io.U32(x.first);   // parameter index
             io.U64(x.second);  // XOR of the IEEE-754 bit patterns
           });
  io.Seq64(round.train_flips, 3 * 4, "round train flip",
           [](auto& io, auto& flip) {
             io.U32(flip.participant);
             io.U32(flip.record);
             io.U32(flip.rule);
           });
  io.Seq64(round.test_activation_flips, 2 * 4, "round test flip",
           [](auto& io, auto& flip) {
             io.U32(flip.test);
             io.U32(flip.rule);
           });
  io.Seq64(round.predicted_flips, 4, "round predicted flip", wire::AsU32);
}

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
  // Round-0 baseline, encoded with the bundle's own section codecs so the
  // two containers stay bit-compatible.
  const Baseline baseline{
      store::EncodeSchemaPayload(*header.schema),
      store::EncodeModelPayload(header.net_config, header.params),
      store::EncodeTrainPayload(header.participants),
      store::EncodeTestsPayload(header.tests)};
  return wire::Encode([&](auto& io) { Fields(io, header, baseline); });
}

Result<DeltaHeader> DecodeHeader(std::string_view payload) {
  DeltaHeader header;
  Baseline baseline;
  CTFL_RETURN_IF_ERROR(
      wire::Decode(payload, kContext, "delta-log header",
                   [&](auto& io) { Fields(io, header, baseline); }));
  CTFL_ASSIGN_OR_RETURN(header.schema,
                        store::DecodeSchemaPayload(baseline.schema));
  CTFL_RETURN_IF_ERROR(store::DecodeModelPayload(
      baseline.model, &header.net_config, &header.params));
  CTFL_RETURN_IF_ERROR(ValidateNetShape(*header.schema, header.net_config,
                                        header.params.size()));
  CTFL_ASSIGN_OR_RETURN(
      header.participants,
      store::DecodeTrainPayload(baseline.train, header.num_rules));
  CTFL_ASSIGN_OR_RETURN(
      header.tests,
      store::DecodeTestsPayload(baseline.tests, header.num_rules));
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
  return wire::Encode([&](auto& io) { Fields(io, round); });
}

Result<RoundDelta> DecodeRound(std::string_view payload) {
  RoundDelta round;
  CTFL_RETURN_IF_ERROR(wire::Decode(payload, kContext, "delta-log round",
                                    [&](auto& io) { Fields(io, round); }));
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
  wire::Writer preamble;
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
  wire::Writer w;
  w.U32(kind);
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string bytes = w.Take();
  bytes += payload;
  wire::Writer crc;
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
  CTFL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
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
