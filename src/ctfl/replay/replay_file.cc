#include "ctfl/replay/replay_file.h"

#include <cstring>
#include <fstream>

#include "ctfl/store/bundle.h"
#include "ctfl/util/file_io.h"
#include "ctfl/util/string_util.h"
#include "ctfl/util/wire.h"

namespace ctfl {
namespace replay {
namespace {

constexpr size_t kMagicBytes = 8;
/// Upper bound on one section payload; guards length prefixes against
/// corrupt files (the largest real section — a long query stream — stays
/// far below this).
constexpr uint32_t kMaxSectionBytes = 256u << 20;

constexpr size_t kF64Bytes = 8;
// op byte, request string's u32 length, response digest.
constexpr size_t kEventBytes = 1 + 4 + 8;

// Section decoders read status(), not Finish(): unknown trailing fields
// appended by a future writer are ignored, exactly like unknown JSON fields
// in a RunReport. Integrity is the section CRC's job.

template <class IO, wire::Is<RunSpec> T>
void Fields(IO& io, T& spec) {
  io.Enum8(spec.source, static_cast<uint8_t>(DataSource::kGenerate),
           static_cast<uint8_t>(DataSource::kCsv), "data source");
  io.Str(spec.dataset);
  io.U64(spec.train_n);
  io.U64(spec.train_seed);
  io.U64(spec.test_n);
  io.U64(spec.test_seed);
  io.Str(spec.train_path);
  io.Str(spec.test_path);
  io.U64(spec.train_csv_digest);
  io.U64(spec.test_csv_digest);
  io.U32(spec.participants);
  io.F64(spec.alpha);
  io.U8(spec.skew_label);
  io.U64(spec.seed);
  io.U8(spec.federated);
  io.U32(spec.rounds);
  io.U32(spec.local_epochs);
  io.U32(spec.epochs);
  io.U32(spec.width);
  io.F64(spec.tau_w);
  io.U8(spec.secure_agg);
  io.Str(spec.failure_plan);
  io.U32(spec.retry_budget);
  io.U8(spec.trace_kernel);
  io.U64(spec.num_threads);
}

template <class IO, wire::Is<RunOutcome> T>
void Fields(IO& io, T& outcome) {
  io.U64(outcome.config_digest);
  io.U64(outcome.schema_fingerprint);
  io.U64(outcome.failure_plan_fingerprint);
  io.U64(outcome.run_fingerprint);
  io.F64(outcome.test_accuracy);
  io.Seq32(outcome.micro, kF64Bytes, "micro scores", wire::AsF64);
  io.Seq32(outcome.macro, kF64Bytes, "macro scores", wire::AsF64);
  io.U64(outcome.score_digest);
  io.U64(outcome.render_digest);
}

template <class IO, wire::Is<std::vector<QueryEvent>> T>
void Fields(IO& io, T& events) {
  io.Seq32(events, kEventBytes, "event", [](auto& io, auto& event) {
    io.U8(event.op);
    io.Str(event.request);
    io.U64(event.response_digest);
  });
}

/// One container section: str name | str payload | u32 crc32(payload).
struct Section {
  std::string name;
  std::string payload;
  uint32_t crc = 0;
};
constexpr size_t kSectionBytes = 4 + 4 + 4;

template <class IO, wire::Is<Section> T>
void Fields(IO& io, T& section) {
  io.Str(section.name);
  io.Str(section.payload);
  io.U32(section.crc);
}

constexpr auto kSection = [](auto& io, auto& section) {
  Fields(io, section);
};

template <class T>
std::string EncodeSection(const T& section) {
  return wire::Encode([&](auto& io) { Fields(io, section); });
}

template <class T>
Status DecodeSection(std::string_view payload, const char* context,
                     T* section) {
  wire::Decoder io(payload, context);
  Fields(io, *section);
  return io.status();
}

}  // namespace

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t ScoreDigest(const std::vector<double>& micro,
                     const std::vector<double>& macro) {
  return HashBytes(wire::Encode([&](auto& io) {
    io.Seq32(micro, kF64Bytes, "micro scores", wire::AsF64);
    io.Seq32(macro, kF64Bytes, "macro scores", wire::AsF64);
  }));
}

uint64_t ResponseDigest(const serve::Response& response) {
  serve::Response canonical = response;
  canonical.request_id = 0;
  return HashBytes(EncodeResponse(canonical));
}

bool OpIsDigestStable(uint8_t op) {
  return op == static_cast<uint8_t>(serve::Op::kRelated) ||
         op == static_cast<uint8_t>(serve::Op::kRelatedForTest) ||
         op == static_cast<uint8_t>(serve::Op::kEvaluate);
}

std::string EncodeReplay(const ReplayFile& file) {
  // Sections in fixed order so serialize -> parse -> serialize is the
  // identity on files this writer produced.
  std::vector<Section> sections;
  const auto add = [&sections](std::string name, std::string payload) {
    const uint32_t crc = store::Crc32(payload.data(), payload.size());
    sections.push_back({std::move(name), std::move(payload), crc});
  };
  if (file.has_spec) add("spec", EncodeSection(file.spec));
  if (file.has_outcome) add("outcome", EncodeSection(file.outcome));
  add("events", EncodeSection(file.events));

  wire::Encoder out;
  out.U32(file.version);
  out.Seq32(sections, kSectionBytes, "section", kSection);
  return std::string(kReplayMagic, kMagicBytes) + out.Take();
}

Result<ReplayFile> DecodeReplay(std::string_view bytes) {
  if (bytes.size() < kMagicBytes ||
      std::memcmp(bytes.data(), kReplayMagic, kMagicBytes) != 0) {
    return Status::InvalidArgument("not a CTFL replay file (bad magic)");
  }
  wire::Decoder in(bytes.substr(kMagicBytes), "replay file");
  ReplayFile file;
  in.U32(file.version);
  CTFL_RETURN_IF_ERROR(in.status());
  if (file.version == 0 || file.version > kReplayVersion) {
    return Status::InvalidArgument(StrFormat(
        "replay file version %u is newer than the supported version %u; "
        "rebuild ctfl_replay or re-record the trace",
        file.version, kReplayVersion));
  }
  std::vector<Section> sections;
  in.Seq32(sections, kSectionBytes, "section", kSection);
  CTFL_RETURN_IF_ERROR(in.Finish("replay file"));
  for (const Section& section : sections) {
    const char* name = section.name.c_str();
    if (section.payload.size() > kMaxSectionBytes) {
      return Status::InvalidArgument(
          StrFormat("replay section '%s' implausibly large (%zu bytes)", name,
                    section.payload.size()));
    }
    if (section.crc !=
        store::Crc32(section.payload.data(), section.payload.size())) {
      return Status::IoError(
          StrFormat("replay section '%s' failed its CRC check", name));
    }
    if (section.name == "spec") {
      CTFL_RETURN_IF_ERROR(
          DecodeSection(section.payload, "replay spec", &file.spec));
      file.has_spec = true;
    } else if (section.name == "outcome") {
      CTFL_RETURN_IF_ERROR(
          DecodeSection(section.payload, "replay outcome", &file.outcome));
      file.has_outcome = true;
    } else if (section.name == "events") {
      CTFL_RETURN_IF_ERROR(
          DecodeSection(section.payload, "replay events", &file.events));
    }
    // Unknown section names: integrity-checked above, then ignored.
  }
  return file;
}

Status WriteReplayFile(const ReplayFile& file, const std::string& path) {
  const std::string bytes = EncodeReplay(file);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<ReplayFile> ReadReplayFile(const std::string& path) {
  CTFL_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  return DecodeReplay(bytes);
}

}  // namespace replay
}  // namespace ctfl
