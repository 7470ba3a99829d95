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

std::string EncodeSpec(const RunSpec& spec) {
  wire::Writer w;
  w.U8(static_cast<uint8_t>(spec.source));
  w.Str(spec.dataset);
  w.U64(spec.train_n);
  w.U64(spec.train_seed);
  w.U64(spec.test_n);
  w.U64(spec.test_seed);
  w.Str(spec.train_path);
  w.Str(spec.test_path);
  w.U64(spec.train_csv_digest);
  w.U64(spec.test_csv_digest);
  w.U32(spec.participants);
  w.F64(spec.alpha);
  w.U8(spec.skew_label ? 1 : 0);
  w.U64(spec.seed);
  w.U8(spec.federated ? 1 : 0);
  w.U32(spec.rounds);
  w.U32(spec.local_epochs);
  w.U32(spec.epochs);
  w.U32(spec.width);
  w.F64(spec.tau_w);
  w.U8(spec.secure_agg ? 1 : 0);
  w.Str(spec.failure_plan);
  w.U32(spec.retry_budget);
  w.U8(spec.trace_kernel);
  w.I64(spec.num_threads);
  return w.Take();
}

// Section decoders deliberately do NOT ExpectEnd(): unknown trailing
// fields appended by a future writer are ignored, exactly like unknown
// JSON fields in a RunReport. Integrity is the section CRC's job.
Status DecodeSpec(std::string_view payload, RunSpec* spec) {
  wire::Reader r(payload, "replay spec");
  uint8_t source = 0, flag = 0;
  CTFL_RETURN_IF_ERROR(r.U8(&source));
  if (source > static_cast<uint8_t>(DataSource::kCsv)) {
    return Status::InvalidArgument(
        StrFormat("replay spec has unknown data source %u", source));
  }
  spec->source = static_cast<DataSource>(source);
  CTFL_RETURN_IF_ERROR(r.Str(&spec->dataset));
  CTFL_RETURN_IF_ERROR(r.U64(&spec->train_n));
  CTFL_RETURN_IF_ERROR(r.U64(&spec->train_seed));
  CTFL_RETURN_IF_ERROR(r.U64(&spec->test_n));
  CTFL_RETURN_IF_ERROR(r.U64(&spec->test_seed));
  CTFL_RETURN_IF_ERROR(r.Str(&spec->train_path));
  CTFL_RETURN_IF_ERROR(r.Str(&spec->test_path));
  CTFL_RETURN_IF_ERROR(r.U64(&spec->train_csv_digest));
  CTFL_RETURN_IF_ERROR(r.U64(&spec->test_csv_digest));
  CTFL_RETURN_IF_ERROR(r.U32(&spec->participants));
  CTFL_RETURN_IF_ERROR(r.F64(&spec->alpha));
  CTFL_RETURN_IF_ERROR(r.U8(&flag));
  spec->skew_label = flag != 0;
  CTFL_RETURN_IF_ERROR(r.U64(&spec->seed));
  CTFL_RETURN_IF_ERROR(r.U8(&flag));
  spec->federated = flag != 0;
  CTFL_RETURN_IF_ERROR(r.U32(&spec->rounds));
  CTFL_RETURN_IF_ERROR(r.U32(&spec->local_epochs));
  CTFL_RETURN_IF_ERROR(r.U32(&spec->epochs));
  CTFL_RETURN_IF_ERROR(r.U32(&spec->width));
  CTFL_RETURN_IF_ERROR(r.F64(&spec->tau_w));
  CTFL_RETURN_IF_ERROR(r.U8(&flag));
  spec->secure_agg = flag != 0;
  CTFL_RETURN_IF_ERROR(r.Str(&spec->failure_plan));
  CTFL_RETURN_IF_ERROR(r.U32(&spec->retry_budget));
  CTFL_RETURN_IF_ERROR(r.U8(&spec->trace_kernel));
  CTFL_RETURN_IF_ERROR(r.I64(&spec->num_threads));
  return Status::OK();
}

std::string EncodeOutcome(const RunOutcome& outcome) {
  wire::Writer w;
  w.U64(outcome.config_digest);
  w.U64(outcome.schema_fingerprint);
  w.U64(outcome.failure_plan_fingerprint);
  w.U64(outcome.run_fingerprint);
  w.F64(outcome.test_accuracy);
  w.U32(static_cast<uint32_t>(outcome.micro.size()));
  for (double v : outcome.micro) w.F64(v);
  w.U32(static_cast<uint32_t>(outcome.macro.size()));
  for (double v : outcome.macro) w.F64(v);
  w.U64(outcome.score_digest);
  w.U64(outcome.render_digest);
  return w.Take();
}

Status DecodeOutcome(std::string_view payload, RunOutcome* outcome) {
  wire::Reader r(payload, "replay outcome");
  CTFL_RETURN_IF_ERROR(r.U64(&outcome->config_digest));
  CTFL_RETURN_IF_ERROR(r.U64(&outcome->schema_fingerprint));
  CTFL_RETURN_IF_ERROR(r.U64(&outcome->failure_plan_fingerprint));
  CTFL_RETURN_IF_ERROR(r.U64(&outcome->run_fingerprint));
  CTFL_RETURN_IF_ERROR(r.F64(&outcome->test_accuracy));
  // Each score is 8 bytes of the payload, so no count can size more than
  // the payload holds.
  uint32_t n = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&n));
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(n, sizeof(double), "micro scores"));
  outcome->micro.resize(n);
  for (double& v : outcome->micro) CTFL_RETURN_IF_ERROR(r.F64(&v));
  CTFL_RETURN_IF_ERROR(r.U32(&n));
  CTFL_RETURN_IF_ERROR(
      r.CheckCount(n, sizeof(double), "macro scores"));
  outcome->macro.resize(n);
  for (double& v : outcome->macro) CTFL_RETURN_IF_ERROR(r.F64(&v));
  CTFL_RETURN_IF_ERROR(r.U64(&outcome->score_digest));
  CTFL_RETURN_IF_ERROR(r.U64(&outcome->render_digest));
  return Status::OK();
}

std::string EncodeEvents(const std::vector<QueryEvent>& events) {
  wire::Writer w;
  w.U32(static_cast<uint32_t>(events.size()));
  for (const QueryEvent& event : events) {
    w.U8(event.op);
    w.Str(event.request);
    w.U64(event.response_digest);
  }
  return w.Take();
}

Status DecodeEvents(std::string_view payload,
                    std::vector<QueryEvent>* events) {
  wire::Reader r(payload, "replay events");
  uint32_t count = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&count));
  // Each event costs at least 13 bytes on the wire; anything claiming
  // more entries than the payload could hold is corruption, not traffic.
  if (count > payload.size() / 13 + 1) {
    return Status::InvalidArgument(
        StrFormat("replay events count %u exceeds payload capacity", count));
  }
  events->clear();
  events->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QueryEvent event;
    CTFL_RETURN_IF_ERROR(r.U8(&event.op));
    CTFL_RETURN_IF_ERROR(r.Str(&event.request));
    CTFL_RETURN_IF_ERROR(r.U64(&event.response_digest));
    events->push_back(std::move(event));
  }
  return Status::OK();
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
  wire::Writer w;
  w.U32(static_cast<uint32_t>(micro.size()));
  for (double v : micro) w.F64(v);
  w.U32(static_cast<uint32_t>(macro.size()));
  for (double v : macro) w.F64(v);
  const std::string bytes = w.Take();
  return HashBytes(bytes);
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
  wire::Writer w;
  // Sections in fixed order so serialize -> parse -> serialize is the
  // identity on files this writer produced.
  std::vector<std::pair<std::string, std::string>> sections;
  if (file.has_spec) sections.emplace_back("spec", EncodeSpec(file.spec));
  if (file.has_outcome) {
    sections.emplace_back("outcome", EncodeOutcome(file.outcome));
  }
  sections.emplace_back("events", EncodeEvents(file.events));

  std::string out(kReplayMagic, kMagicBytes);
  wire::Writer header;
  header.U32(file.version);
  header.U32(static_cast<uint32_t>(sections.size()));
  for (auto& [name, payload] : sections) {
    header.Str(name);
    header.Str(payload);
    header.U32(store::Crc32(payload.data(), payload.size()));
  }
  out += header.Take();
  return out;
}

Result<ReplayFile> DecodeReplay(std::string_view bytes) {
  if (bytes.size() < kMagicBytes ||
      std::memcmp(bytes.data(), kReplayMagic, kMagicBytes) != 0) {
    return Status::InvalidArgument("not a CTFL replay file (bad magic)");
  }
  wire::Reader r(bytes.substr(kMagicBytes), "replay file");
  ReplayFile file;
  CTFL_RETURN_IF_ERROR(r.U32(&file.version));
  if (file.version == 0 || file.version > kReplayVersion) {
    return Status::InvalidArgument(StrFormat(
        "replay file version %u is newer than the supported version %u; "
        "rebuild ctfl_replay or re-record the trace",
        file.version, kReplayVersion));
  }
  uint32_t section_count = 0;
  CTFL_RETURN_IF_ERROR(r.U32(&section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    std::string name, payload;
    CTFL_RETURN_IF_ERROR(r.Str(&name));
    CTFL_RETURN_IF_ERROR(r.Str(&payload));
    if (payload.size() > kMaxSectionBytes) {
      return Status::InvalidArgument(
          StrFormat("replay section '%s' implausibly large (%zu bytes)",
                    name.c_str(), payload.size()));
    }
    uint32_t crc = 0;
    CTFL_RETURN_IF_ERROR(r.U32(&crc));
    if (crc != store::Crc32(payload.data(), payload.size())) {
      return Status::IoError(
          StrFormat("replay section '%s' failed its CRC check",
                    name.c_str()));
    }
    if (name == "spec") {
      CTFL_RETURN_IF_ERROR(DecodeSpec(payload, &file.spec));
      file.has_spec = true;
    } else if (name == "outcome") {
      CTFL_RETURN_IF_ERROR(DecodeOutcome(payload, &file.outcome));
      file.has_outcome = true;
    } else if (name == "events") {
      CTFL_RETURN_IF_ERROR(DecodeEvents(payload, &file.events));
    }
    // Unknown section names: integrity-checked above, then ignored.
  }
  CTFL_RETURN_IF_ERROR(r.ExpectEnd("replay file"));
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
