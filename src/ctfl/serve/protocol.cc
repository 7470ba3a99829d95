#include "ctfl/serve/protocol.h"

#include <utility>

#include "ctfl/util/string_util.h"
#include "ctfl/util/wire.h"

namespace ctfl {
namespace serve {
namespace {

constexpr char kContext[] = "serve frame";

// Fewest encoded bytes of one element, for bounding counts read off the
// wire before anything is sized from them (wire::Reader::CheckCount).
constexpr size_t kF64Bytes = 8;
constexpr size_t kStrBytes = 4;  // u32 length, no bytes
constexpr size_t kRecordRefBytes = 8;
constexpr size_t kRuleStatBytes = 4 + kF64Bytes + kStrBytes;
// id, name, data size, two rule-stat counts, useless ratio.
constexpr size_t kParticipantBytes = 4 + kStrBytes + 8 + 2 * 4 + kF64Bytes;

// Status codes travel as one byte; the mapping must stay stable across
// protocol versions (append-only).
uint8_t EncodeStatusCode(StatusCode code) { return static_cast<uint8_t>(code); }

StatusCode DecodeStatusCode(uint8_t byte) {
  if (byte > static_cast<uint8_t>(StatusCode::kIoError)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(byte);
}

bool ValidOp(uint8_t byte) {
  return byte >= static_cast<uint8_t>(Op::kRelated) &&
         byte <= static_cast<uint8_t>(Op::kShutdown);
}

// Bytes that once selected the posting prefilter and the Eq. 4 kernel. The
// encoder writes 1 (their former defaults) and the decoder accepts nothing
// else, so every request keeps one canonical encoding.
constexpr uint8_t kReservedByte = 1;

Status DecodeReservedByte(wire::Reader* r) {
  uint8_t byte = 0;
  CTFL_RETURN_IF_ERROR(r->U8(&byte));
  if (byte != kReservedByte) {
    return Status::InvalidArgument(StrFormat(
        "serve frame reserved byte is %u (expected %u)", byte,
        kReservedByte));
  }
  return Status::OK();
}

void EncodeQueryOptions(const store::QueryOptions& options, wire::Writer* w) {
  w->F64(options.tau_w);
  w->U8(kReservedByte);
  w->U64(options.max_records);
  w->U8(kReservedByte);
}

Status DecodeQueryOptions(wire::Reader* r, store::QueryOptions* options) {
  uint64_t max_records = 0;
  CTFL_RETURN_IF_ERROR(r->F64(&options->tau_w));
  CTFL_RETURN_IF_ERROR(DecodeReservedByte(r));
  CTFL_RETURN_IF_ERROR(r->U64(&max_records));
  CTFL_RETURN_IF_ERROR(DecodeReservedByte(r));
  options->max_records = static_cast<size_t>(max_records);
  return Status::OK();
}

void EncodeInstance(const Instance& instance, wire::Writer* w) {
  w->U32(static_cast<uint32_t>(instance.values.size()));
  for (double v : instance.values) w->F64(v);
  w->U8(static_cast<uint8_t>(instance.label));
}

Status DecodeInstance(wire::Reader* r, Instance* instance) {
  uint32_t count = 0;
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(r->CheckCount(count, kF64Bytes, "instance value"));
  instance->values.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    CTFL_RETURN_IF_ERROR(r->F64(&instance->values[i]));
  }
  uint8_t label = 0;
  CTFL_RETURN_IF_ERROR(r->U8(&label));
  instance->label = label;
  return Status::OK();
}

void EncodeDoubles(const std::vector<double>& values, wire::Writer* w) {
  w->U32(static_cast<uint32_t>(values.size()));
  for (double v : values) w->F64(v);
}

Status DecodeDoubles(wire::Reader* r, std::vector<double>* values) {
  uint32_t count = 0;
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(r->CheckCount(count, kF64Bytes, "score"));
  values->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    CTFL_RETURN_IF_ERROR(r->F64(&(*values)[i]));
  }
  return Status::OK();
}

void EncodeRelatedResult(const store::RelatedResult& related,
                         wire::Writer* w) {
  w->U32(static_cast<uint32_t>(related.predicted));
  w->U32(static_cast<uint32_t>(related.support_size));
  w->F64(related.support_weight);
  w->U32(static_cast<uint32_t>(related.related_count.size()));
  for (int c : related.related_count) w->U32(static_cast<uint32_t>(c));
  w->U64(related.total_related);
  w->U32(static_cast<uint32_t>(related.records.size()));
  for (const store::RecordRef& ref : related.records) {
    w->U32(static_cast<uint32_t>(ref.participant));
    w->U32(static_cast<uint32_t>(ref.local_index));
  }
  w->I64(related.bucket_size);
  w->I64(related.tau_w_checks);
  w->I64(related.postings_scanned);
  w->I64(related.candidates_pruned);
  w->I64(related.records_scanned);
  w->I64(related.blocks_pruned);
  w->I64(related.exact_fallbacks);
}

Status DecodeRelatedResult(wire::Reader* r, store::RelatedResult* related) {
  uint32_t predicted = 0, support_size = 0, count = 0;
  CTFL_RETURN_IF_ERROR(r->U32(&predicted));
  CTFL_RETURN_IF_ERROR(r->U32(&support_size));
  related->predicted = static_cast<int>(predicted);
  related->support_size = static_cast<int>(support_size);
  CTFL_RETURN_IF_ERROR(r->F64(&related->support_weight));
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(r->CheckCount(count, 4, "related count"));
  related->related_count.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t c = 0;
    CTFL_RETURN_IF_ERROR(r->U32(&c));
    related->related_count[i] = static_cast<int>(c);
  }
  uint64_t total = 0;
  CTFL_RETURN_IF_ERROR(r->U64(&total));
  related->total_related = static_cast<size_t>(total);
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(r->CheckCount(count, kRecordRefBytes, "record"));
  related->records.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t participant = 0, local = 0;
    CTFL_RETURN_IF_ERROR(r->U32(&participant));
    CTFL_RETURN_IF_ERROR(r->U32(&local));
    related->records[i].participant = static_cast<int>(participant);
    related->records[i].local_index = static_cast<int>(local);
  }
  CTFL_RETURN_IF_ERROR(r->I64(&related->bucket_size));
  CTFL_RETURN_IF_ERROR(r->I64(&related->tau_w_checks));
  CTFL_RETURN_IF_ERROR(r->I64(&related->postings_scanned));
  CTFL_RETURN_IF_ERROR(r->I64(&related->candidates_pruned));
  CTFL_RETURN_IF_ERROR(r->I64(&related->records_scanned));
  CTFL_RETURN_IF_ERROR(r->I64(&related->blocks_pruned));
  CTFL_RETURN_IF_ERROR(r->I64(&related->exact_fallbacks));
  return Status::OK();
}

void EncodeRuleStats(const std::vector<store::RuleStat>& stats,
                     wire::Writer* w) {
  w->U32(static_cast<uint32_t>(stats.size()));
  for (const store::RuleStat& s : stats) {
    w->U32(static_cast<uint32_t>(s.rule));
    w->F64(s.frequency);
    w->Str(s.text);
  }
}

Status DecodeRuleStats(wire::Reader* r, std::vector<store::RuleStat>* stats) {
  uint32_t count = 0;
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(r->CheckCount(count, kRuleStatBytes, "rule stat"));
  stats->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t rule = 0;
    CTFL_RETURN_IF_ERROR(r->U32(&rule));
    (*stats)[i].rule = static_cast<int>(rule);
    CTFL_RETURN_IF_ERROR(r->F64(&(*stats)[i].frequency));
    CTFL_RETURN_IF_ERROR(r->Str(&(*stats)[i].text));
  }
  return Status::OK();
}

void EncodeReport(const store::QueryReport& report, wire::Writer* w) {
  w->F64(report.tau_w);
  w->U32(static_cast<uint32_t>(report.delta));
  EncodeDoubles(report.micro, w);
  EncodeDoubles(report.macro, w);
  w->F64(report.global_accuracy);
  w->F64(report.matched_accuracy);
  w->U64(report.uncovered_tests);
  EncodeRuleStats(report.uncovered_rules, w);
  w->U32(static_cast<uint32_t>(report.participants.size()));
  for (const store::ParticipantSummary& p : report.participants) {
    w->U32(static_cast<uint32_t>(p.participant));
    w->Str(p.name);
    w->U64(p.data_size);
    EncodeRuleStats(p.beneficial, w);
    EncodeRuleStats(p.harmful, w);
    w->F64(p.useless_ratio);
  }
  w->I64(report.keys);
  w->I64(report.tau_w_checks);
  w->I64(report.postings_scanned);
  w->I64(report.candidates_pruned);
  w->I64(report.records_scanned);
  w->I64(report.blocks_pruned);
  w->I64(report.exact_fallbacks);
}

Status DecodeReport(wire::Reader* r, store::QueryReport* report) {
  uint32_t delta = 0, count = 0;
  CTFL_RETURN_IF_ERROR(r->F64(&report->tau_w));
  CTFL_RETURN_IF_ERROR(r->U32(&delta));
  report->delta = static_cast<int>(delta);
  CTFL_RETURN_IF_ERROR(DecodeDoubles(r, &report->micro));
  CTFL_RETURN_IF_ERROR(DecodeDoubles(r, &report->macro));
  CTFL_RETURN_IF_ERROR(r->F64(&report->global_accuracy));
  CTFL_RETURN_IF_ERROR(r->F64(&report->matched_accuracy));
  uint64_t uncovered = 0;
  CTFL_RETURN_IF_ERROR(r->U64(&uncovered));
  report->uncovered_tests = static_cast<size_t>(uncovered);
  CTFL_RETURN_IF_ERROR(DecodeRuleStats(r, &report->uncovered_rules));
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(
      r->CheckCount(count, kParticipantBytes, "report participant"));
  report->participants.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    store::ParticipantSummary& p = report->participants[i];
    uint32_t participant = 0;
    uint64_t data_size = 0;
    CTFL_RETURN_IF_ERROR(r->U32(&participant));
    p.participant = static_cast<int>(participant);
    CTFL_RETURN_IF_ERROR(r->Str(&p.name));
    CTFL_RETURN_IF_ERROR(r->U64(&data_size));
    p.data_size = static_cast<size_t>(data_size);
    CTFL_RETURN_IF_ERROR(DecodeRuleStats(r, &p.beneficial));
    CTFL_RETURN_IF_ERROR(DecodeRuleStats(r, &p.harmful));
    CTFL_RETURN_IF_ERROR(r->F64(&p.useless_ratio));
  }
  CTFL_RETURN_IF_ERROR(r->I64(&report->keys));
  CTFL_RETURN_IF_ERROR(r->I64(&report->tau_w_checks));
  CTFL_RETURN_IF_ERROR(r->I64(&report->postings_scanned));
  CTFL_RETURN_IF_ERROR(r->I64(&report->candidates_pruned));
  CTFL_RETURN_IF_ERROR(r->I64(&report->records_scanned));
  CTFL_RETURN_IF_ERROR(r->I64(&report->blocks_pruned));
  CTFL_RETURN_IF_ERROR(r->I64(&report->exact_fallbacks));
  return Status::OK();
}

void EncodeStats(const ServerStats& stats, wire::Writer* w) {
  w->U64(stats.requests_total);
  w->U64(stats.errors_total);
  w->U64(stats.related_requests);
  w->U64(stats.related_for_test_requests);
  w->U64(stats.evaluate_requests);
  w->U64(stats.cache_hits);
  w->U64(stats.cache_misses);
  w->U64(stats.bundle_bytes);
  w->U32(stats.num_participants);
  w->U32(stats.num_rules);
  w->U64(stats.train_records);
  w->U64(stats.test_records);
  w->F64(stats.origin_tau_w);
  w->U32(static_cast<uint32_t>(stats.origin_delta));
  w->U64(stats.exact_fallbacks);
  w->Str(stats.trace_isa);
  w->U32(static_cast<uint32_t>(stats.participant_names.size()));
  for (const std::string& name : stats.participant_names) w->Str(name);
  w->U64(stats.rounds_folded);  // v3
}

Status DecodeStats(wire::Reader* r, ServerStats* stats) {
  CTFL_RETURN_IF_ERROR(r->U64(&stats->requests_total));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->errors_total));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->related_requests));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->related_for_test_requests));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->evaluate_requests));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->cache_hits));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->cache_misses));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->bundle_bytes));
  CTFL_RETURN_IF_ERROR(r->U32(&stats->num_participants));
  CTFL_RETURN_IF_ERROR(r->U32(&stats->num_rules));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->train_records));
  CTFL_RETURN_IF_ERROR(r->U64(&stats->test_records));
  CTFL_RETURN_IF_ERROR(r->F64(&stats->origin_tau_w));
  uint32_t delta = 0, count = 0;
  CTFL_RETURN_IF_ERROR(r->U32(&delta));
  stats->origin_delta = static_cast<int32_t>(delta);
  CTFL_RETURN_IF_ERROR(r->U64(&stats->exact_fallbacks));
  CTFL_RETURN_IF_ERROR(r->Str(&stats->trace_isa));
  CTFL_RETURN_IF_ERROR(r->U32(&count));
  CTFL_RETURN_IF_ERROR(r->CheckCount(count, kStrBytes, "participant name"));
  stats->participant_names.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    CTFL_RETURN_IF_ERROR(r->Str(&stats->participant_names[i]));
  }
  CTFL_RETURN_IF_ERROR(r->U64(&stats->rounds_folded));  // v3
  return Status::OK();
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
  wire::Writer w;
  w.U8(kProtocolVersion);
  w.U8(static_cast<uint8_t>(request.op));
  w.U64(request.request_id);
  switch (request.op) {
    case Op::kRelated:
      EncodeInstance(request.related.instance, &w);
      EncodeQueryOptions(request.related.options, &w);
      break;
    case Op::kRelatedForTest:
      w.U64(request.related_for_test.test_index);
      EncodeQueryOptions(request.related_for_test.options, &w);
      break;
    case Op::kEvaluate:
      w.F64(request.evaluate.options.tau_w);
      w.U32(static_cast<uint32_t>(request.evaluate.options.delta));
      w.U32(static_cast<uint32_t>(request.evaluate.options.top_k));
      w.U8(kReservedByte);
      break;
    case Op::kStats:
    case Op::kShutdown:
      break;
  }
  return w.Take();
}

Result<Request> DecodeRequest(std::string_view payload) {
  wire::Reader r(payload, kContext);
  uint8_t version = 0, op_byte = 0;
  CTFL_RETURN_IF_ERROR(r.U8(&version));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("serve frame has unsupported protocol version %u "
                  "(expected %u)",
                  version, kProtocolVersion));
  }
  CTFL_RETURN_IF_ERROR(r.U8(&op_byte));
  if (!ValidOp(op_byte)) {
    return Status::InvalidArgument(
        StrFormat("serve frame has unknown op %u", op_byte));
  }
  Request request;
  request.op = static_cast<Op>(op_byte);
  CTFL_RETURN_IF_ERROR(r.U64(&request.request_id));
  switch (request.op) {
    case Op::kRelated:
      CTFL_RETURN_IF_ERROR(DecodeInstance(&r, &request.related.instance));
      CTFL_RETURN_IF_ERROR(DecodeQueryOptions(&r, &request.related.options));
      break;
    case Op::kRelatedForTest:
      CTFL_RETURN_IF_ERROR(r.U64(&request.related_for_test.test_index));
      CTFL_RETURN_IF_ERROR(
          DecodeQueryOptions(&r, &request.related_for_test.options));
      break;
    case Op::kEvaluate: {
      uint32_t delta = 0, top_k = 0;
      CTFL_RETURN_IF_ERROR(r.F64(&request.evaluate.options.tau_w));
      CTFL_RETURN_IF_ERROR(r.U32(&delta));
      CTFL_RETURN_IF_ERROR(r.U32(&top_k));
      CTFL_RETURN_IF_ERROR(DecodeReservedByte(&r));
      request.evaluate.options.delta = static_cast<int>(delta);
      request.evaluate.options.top_k = static_cast<int>(top_k);
      break;
    }
    case Op::kStats:
    case Op::kShutdown:
      break;
  }
  CTFL_RETURN_IF_ERROR(r.ExpectEnd(OpName(request.op)));
  return request;
}

std::string EncodeResponse(const Response& response) {
  wire::Writer w;
  w.U8(kProtocolVersion);
  w.U8(static_cast<uint8_t>(response.op));
  w.U64(response.request_id);
  if (!response.status.ok()) {
    w.U8(0);
    w.U8(EncodeStatusCode(response.status.code()));
    w.Str(response.status.message());
    return w.Take();
  }
  w.U8(1);
  switch (response.op) {
    case Op::kRelated:
    case Op::kRelatedForTest:
      EncodeRelatedResult(response.related, &w);
      break;
    case Op::kEvaluate:
      EncodeReport(response.report, &w);
      w.F64(response.origin_tau_w);
      w.U32(static_cast<uint32_t>(response.origin_delta));
      EncodeDoubles(response.origin_micro, &w);
      EncodeDoubles(response.origin_macro, &w);
      break;
    case Op::kStats:
    case Op::kShutdown:
      EncodeStats(response.stats, &w);
      break;
  }
  return w.Take();
}

Result<Response> DecodeResponse(std::string_view payload) {
  wire::Reader r(payload, kContext);
  uint8_t version = 0, op_byte = 0, ok_byte = 0;
  CTFL_RETURN_IF_ERROR(r.U8(&version));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("serve frame has unsupported protocol version %u "
                  "(expected %u)",
                  version, kProtocolVersion));
  }
  CTFL_RETURN_IF_ERROR(r.U8(&op_byte));
  if (!ValidOp(op_byte)) {
    return Status::InvalidArgument(
        StrFormat("serve frame has unknown op %u", op_byte));
  }
  Response response;
  response.op = static_cast<Op>(op_byte);
  CTFL_RETURN_IF_ERROR(r.U64(&response.request_id));
  CTFL_RETURN_IF_ERROR(r.U8(&ok_byte));
  if (ok_byte == 0) {
    uint8_t code = 0;
    std::string message;
    CTFL_RETURN_IF_ERROR(r.U8(&code));
    CTFL_RETURN_IF_ERROR(r.Str(&message));
    CTFL_RETURN_IF_ERROR(r.ExpectEnd("error response"));
    response.status = Status(DecodeStatusCode(code), std::move(message));
    return response;
  }
  switch (response.op) {
    case Op::kRelated:
    case Op::kRelatedForTest:
      CTFL_RETURN_IF_ERROR(DecodeRelatedResult(&r, &response.related));
      break;
    case Op::kEvaluate: {
      uint32_t delta = 0;
      CTFL_RETURN_IF_ERROR(DecodeReport(&r, &response.report));
      CTFL_RETURN_IF_ERROR(r.F64(&response.origin_tau_w));
      CTFL_RETURN_IF_ERROR(r.U32(&delta));
      response.origin_delta = static_cast<int32_t>(delta);
      CTFL_RETURN_IF_ERROR(DecodeDoubles(&r, &response.origin_micro));
      CTFL_RETURN_IF_ERROR(DecodeDoubles(&r, &response.origin_macro));
      break;
    }
    case Op::kStats:
    case Op::kShutdown:
      CTFL_RETURN_IF_ERROR(DecodeStats(&r, &response.stats));
      break;
  }
  CTFL_RETURN_IF_ERROR(r.ExpectEnd(OpName(response.op)));
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
