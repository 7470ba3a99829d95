#ifndef CTFL_SERVE_PROTOCOL_H_
#define CTFL_SERVE_PROTOCOL_H_

// Wire protocol of the resident contribution-query service (DESIGN.md
// §13). Length-prefixed binary frames over a byte stream (unix-domain or
// loopback TCP socket):
//
//   frame    u32 payload_len (little-endian, <= kMaxFrameBytes) | payload
//   request  u8 version | u8 op | u64 request_id | op body
//   response u8 version | u8 op (echo) | u64 request_id (echo)
//            | u8 ok | ok body (ok=1)  or  u8 code + str message (ok=0)
//
// Ops mirror the one-shot `ctfl_cli query` surface: RELATED runs deployed
// inference + an Eq. 4 lookup for a shipped instance, RELATED_FOR_TEST
// reuses a stored test activation, EVALUATE is the batch micro/macro
// recomputation, STATS reports server/bundle health, SHUTDOWN asks the
// server to drain. Every numeric field is fixed-width little-endian and
// doubles travel as IEEE-754 bit patterns, so the structured results are
// bit-exact across the wire — the served responses render byte-identically
// to the one-shot CLI (serve/render.h).
//
// The codec is strict both ways: unknown versions/ops, truncated bodies,
// and trailing bytes are decode errors, never silent defaults.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ctfl/data/dataset.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace serve {

// v2: RelatedResult / QueryReport / STATS responses grew the blocked
// kernel's exact-fallback counter, and STATS reports the server's trace
// ISA tier. Request bodies are unchanged (the trace ISA and thread count
// are server-local implementation selectors, not wire fields).
// v3: STATS grew `rounds_folded` — the number of streaming delta-log
// rounds the server has folded into its live scores (0 when serving a
// static bundle). Request bodies are again unchanged.
// Within v3, the request bytes that once selected the posting prefilter
// and the Eq. 4 kernel (two in RELATED / RELATED_FOR_TEST options, one in
// EVALUATE) are reserved: always 1, the only value the decoder accepts.
// RelatedResult / QueryReport keep their always-0 postings_scanned and
// candidates_pruned fields, so the layout does not move.
inline constexpr uint8_t kProtocolVersion = 3;
/// Upper bound on one frame's payload (guards the length prefix against
/// corrupt peers; a full EVALUATE report over a large bundle stays far
/// below this).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class Op : uint8_t {
  kRelated = 1,
  kRelatedForTest = 2,
  kEvaluate = 3,
  kStats = 4,
  kShutdown = 5,
};

/// Human-readable op name ("RELATED", ...); "UNKNOWN" for bad values.
const char* OpName(Op op);

struct RelatedRequest {
  Instance instance;
  store::QueryOptions options;
};

struct RelatedForTestRequest {
  uint64_t test_index = 0;
  store::QueryOptions options;
};

struct EvaluateRequest {
  store::EvalOptions options;
};

/// One decoded request frame. Only the member matching `op` is meaningful.
struct Request {
  Op op = Op::kStats;
  uint64_t request_id = 0;
  RelatedRequest related;
  RelatedForTestRequest related_for_test;
  EvaluateRequest evaluate;
};

/// STATS response body: bundle shape + service counters, plus the
/// participant names a client needs to render related-record lookups
/// byte-identically to the CLI.
struct ServerStats {
  uint64_t requests_total = 0;
  uint64_t errors_total = 0;
  uint64_t related_requests = 0;
  uint64_t related_for_test_requests = 0;
  uint64_t evaluate_requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t bundle_bytes = 0;
  uint32_t num_participants = 0;
  uint32_t num_rules = 0;
  uint64_t train_records = 0;
  uint64_t test_records = 0;
  double origin_tau_w = 0.0;
  int32_t origin_delta = 1;
  /// Exact-fallback lanes accumulated over every lookup the server ran.
  uint64_t exact_fallbacks = 0;
  /// SIMD tier of the server's blocked trace kernel ("scalar", "avx2", ...).
  std::string trace_isa;
  std::vector<std::string> participant_names;
  /// Delta-log rounds folded into the live scores (v3; 0 = static bundle).
  uint64_t rounds_folded = 0;
};

/// One decoded response frame. `status` carries server-side failures
/// (unknown test index, bad op, ...); when ok, the member matching `op`
/// is meaningful. Evaluate responses also ship the originating run's
/// parameters and scores so the client can render the CLI's
/// "reproduction vs originating run" line without holding the bundle.
struct Response {
  Op op = Op::kStats;
  uint64_t request_id = 0;
  Status status = Status::OK();
  store::RelatedResult related;
  store::QueryReport report;
  double origin_tau_w = 0.0;
  int32_t origin_delta = 1;
  std::vector<double> origin_micro;
  std::vector<double> origin_macro;
  ServerStats stats;
};

std::string EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::string_view payload);

std::string EncodeResponse(const Response& response);
Result<Response> DecodeResponse(std::string_view payload);

/// Wraps an encoded payload in a length-prefixed frame.
Result<std::string> Frame(std::string_view payload);

/// Incremental deframer over a socket byte stream. Feed bytes as they
/// arrive; Next() pops complete frames in order. A length prefix beyond
/// kMaxFrameBytes poisons the decoder (every later Next() fails) — the
/// connection must be dropped, the stream cannot be resynchronized.
class FrameDecoder {
 public:
  void Append(const char* data, size_t size);

  /// True + fills `payload` when a full frame was buffered; false when
  /// more bytes are needed; error when the stream is poisoned.
  Result<bool> Next(std::string* payload);

  /// True when no partial frame is buffered (a clean drain point).
  bool idle() const { return buffer_.empty() && !poisoned_; }

 private:
  std::string buffer_;
  bool poisoned_ = false;
};

}  // namespace serve
}  // namespace ctfl

#endif  // CTFL_SERVE_PROTOCOL_H_
