#include "ctfl/serve/protocol.h"

#include <utility>

#include "ctfl/util/string_util.h"
#include "ctfl/util/wire.h"

namespace ctfl {
namespace serve {
namespace {

constexpr char kContext[] = "serve frame";

// Fewest encoded bytes of one element, for bounding counts read off the
// wire before anything is sized from them.
constexpr size_t kF64Bytes = 8;
constexpr size_t kStrBytes = 4;  // u32 length, no bytes
constexpr size_t kRecordRefBytes = 8;
constexpr size_t kRuleStatBytes = 4 + kF64Bytes + kStrBytes;
// id, name, data size, two rule-stat counts, useless ratio.
constexpr size_t kParticipantBytes = 4 + kStrBytes + 8 + 2 * 4 + kF64Bytes;

// Bytes that once selected the posting prefilter and the Eq. 4 kernel. The
// encoder writes 1 (their former defaults) and the decoder accepts nothing
// else, so every request keeps one canonical encoding.
constexpr uint8_t kReservedByte = 1;
constexpr char kReserved[] = "reserved byte is";

// Status codes travel as one byte; the mapping must stay stable across
// protocol versions (append-only). Codes past the last known one read as
// kInternal.
StatusCode DecodeStatusCode(uint8_t byte) {
  if (byte > static_cast<uint8_t>(StatusCode::kIoError)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(byte);
}

// u8 version | u8 op | u64 request_id: the head of every frame.
template <class IO, class Message>
void Head(IO& io, Message& m) {
  io.Const8(kProtocolVersion, "has unsupported protocol version");
  io.Enum8(m.op, static_cast<uint8_t>(Op::kRelated),
           static_cast<uint8_t>(Op::kShutdown), "op");
  io.U64(m.request_id);
}

template <class IO, wire::Is<store::QueryOptions> T>
void Fields(IO& io, T& options) {
  io.F64(options.tau_w);
  io.Const8(kReservedByte, kReserved);
  io.U64(options.max_records);
  io.Const8(kReservedByte, kReserved);
}

template <class IO, wire::Is<Instance> T>
void Fields(IO& io, T& instance) {
  io.Seq32(instance.values, kF64Bytes, "instance value", wire::AsF64);
  io.U8(instance.label);
}

template <class IO, wire::Is<Request> T>
void Fields(IO& io, T& request) {
  Head(io, request);
  switch (request.op) {
    case Op::kRelated:
      Fields(io, request.related.instance);
      Fields(io, request.related.options);
      break;
    case Op::kRelatedForTest:
      io.U64(request.related_for_test.test_index);
      Fields(io, request.related_for_test.options);
      break;
    case Op::kEvaluate:
      io.F64(request.evaluate.options.tau_w);
      io.U32(request.evaluate.options.delta);
      io.U32(request.evaluate.options.top_k);
      io.Const8(kReservedByte, kReserved);
      break;
    case Op::kStats:
    case Op::kShutdown:
      break;
  }
}

template <class IO, wire::Is<store::RelatedResult> T>
void Fields(IO& io, T& related) {
  io.U32(related.predicted);
  io.U32(related.support_size);
  io.F64(related.support_weight);
  io.Seq32(related.related_count, 4, "related count", wire::AsU32);
  io.U64(related.total_related);
  io.Seq32(related.records, kRecordRefBytes, "record",
           [](auto& io, auto& ref) {
             io.U32(ref.participant);
             io.U32(ref.local_index);
           });
  io.U64(related.bucket_size);
  io.U64(related.tau_w_checks);
  io.U64(related.postings_scanned);
  io.U64(related.candidates_pruned);
  io.U64(related.records_scanned);
  io.U64(related.blocks_pruned);
  io.U64(related.exact_fallbacks);
}

template <class IO, class Stats>
void RuleStats(IO& io, Stats& stats) {
  io.Seq32(stats, kRuleStatBytes, "rule stat", [](auto& io, auto& s) {
    io.U32(s.rule);
    io.F64(s.frequency);
    io.Str(s.text);
  });
}

template <class IO, wire::Is<store::QueryReport> T>
void Fields(IO& io, T& report) {
  io.F64(report.tau_w);
  io.U32(report.delta);
  io.Seq32(report.micro, kF64Bytes, "score", wire::AsF64);
  io.Seq32(report.macro, kF64Bytes, "score", wire::AsF64);
  io.F64(report.global_accuracy);
  io.F64(report.matched_accuracy);
  io.U64(report.uncovered_tests);
  RuleStats(io, report.uncovered_rules);
  io.Seq32(report.participants, kParticipantBytes, "report participant",
           [](auto& io, auto& p) {
             io.U32(p.participant);
             io.Str(p.name);
             io.U64(p.data_size);
             RuleStats(io, p.beneficial);
             RuleStats(io, p.harmful);
             io.F64(p.useless_ratio);
           });
  io.U64(report.keys);
  io.U64(report.tau_w_checks);
  io.U64(report.postings_scanned);
  io.U64(report.candidates_pruned);
  io.U64(report.records_scanned);
  io.U64(report.blocks_pruned);
  io.U64(report.exact_fallbacks);
}

template <class IO, wire::Is<ServerStats> T>
void Fields(IO& io, T& stats) {
  io.U64(stats.requests_total);
  io.U64(stats.errors_total);
  io.U64(stats.related_requests);
  io.U64(stats.related_for_test_requests);
  io.U64(stats.evaluate_requests);
  io.U64(stats.cache_hits);
  io.U64(stats.cache_misses);
  io.U64(stats.bundle_bytes);
  io.U32(stats.num_participants);
  io.U32(stats.num_rules);
  io.U64(stats.train_records);
  io.U64(stats.test_records);
  io.F64(stats.origin_tau_w);
  io.U32(stats.origin_delta);
  io.U64(stats.exact_fallbacks);
  io.Str(stats.trace_isa);
  io.Seq32(stats.participant_names, kStrBytes, "participant name",
           wire::AsStr);
  io.U64(stats.rounds_folded);  // v3
}

// An error response's body: u8 status code | str message.
template <class IO, class S>
void ErrorFields(IO& io, S& status) {
  uint8_t code = static_cast<uint8_t>(status.code());
  std::string message = status.message();
  io.U8(code);
  io.Str(message);
  if constexpr (IO::kDecoding) {
    status = Status(DecodeStatusCode(code), std::move(message));
  }
}

template <class IO, wire::Is<Response> T>
void Fields(IO& io, T& response) {
  Head(io, response);
  uint8_t ok = response.status.ok() ? 1 : 0;
  io.U8(ok);
  if (ok == 0) return ErrorFields(io, response.status);
  switch (response.op) {
    case Op::kRelated:
    case Op::kRelatedForTest:
      Fields(io, response.related);
      break;
    case Op::kEvaluate:
      Fields(io, response.report);
      io.F64(response.origin_tau_w);
      io.U32(response.origin_delta);
      io.Seq32(response.origin_micro, kF64Bytes, "score", wire::AsF64);
      io.Seq32(response.origin_macro, kF64Bytes, "score", wire::AsF64);
      break;
    case Op::kStats:
    case Op::kShutdown:
      Fields(io, response.stats);
      break;
  }
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kRelated:
      return "RELATED";
    case Op::kRelatedForTest:
      return "RELATED_FOR_TEST";
    case Op::kEvaluate:
      return "EVALUATE";
    case Op::kStats:
      return "STATS";
    case Op::kShutdown:
      return "SHUTDOWN";
  }
  return "UNKNOWN";
}

std::string EncodeRequest(const Request& request) {
  return wire::Encode([&](auto& io) { Fields(io, request); });
}

Result<Request> DecodeRequest(std::string_view payload) {
  Request request;
  wire::Decoder io(payload, kContext);
  Fields(io, request);
  CTFL_RETURN_IF_ERROR(io.Finish(OpName(request.op)));
  return request;
}

std::string EncodeResponse(const Response& response) {
  return wire::Encode([&](auto& io) { Fields(io, response); });
}

Result<Response> DecodeResponse(std::string_view payload) {
  Response response;
  wire::Decoder io(payload, kContext);
  Fields(io, response);
  CTFL_RETURN_IF_ERROR(io.Finish(
      response.status.ok() ? OpName(response.op) : "error response"));
  return response;
}

Result<std::string> Frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("serve frame payload of %zu bytes exceeds the %u-byte "
                  "frame limit",
                  payload.size(), kMaxFrameBytes));
  }
  wire::Writer w;
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string framed = w.Take();
  framed.append(payload);
  return framed;
}

void FrameDecoder::Append(const char* data, size_t size) {
  buffer_.append(data, size);
}

Result<bool> FrameDecoder::Next(std::string* payload) {
  if (poisoned_) {
    return Status::InvalidArgument("serve frame stream poisoned by an "
                                   "oversized length prefix");
  }
  if (buffer_.size() < 4) return false;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buffer_[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    poisoned_ = true;
    return Status::InvalidArgument(
        StrFormat("serve frame length prefix %u exceeds the %u-byte frame "
                  "limit",
                  len, kMaxFrameBytes));
  }
  if (buffer_.size() < 4 + static_cast<size_t>(len)) return false;
  payload->assign(buffer_, 4, len);
  buffer_.erase(0, 4 + static_cast<size_t>(len));
  return true;
}

}  // namespace serve
}  // namespace ctfl
