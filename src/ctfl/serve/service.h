#ifndef CTFL_SERVE_SERVICE_H_
#define CTFL_SERVE_SERVICE_H_

// Transport-independent request handler of the resident query service:
// owns the immutable QueryEngine (loaded once) and a sharded LRU of hot
// per-test related lookups, and maps protocol requests to engine calls.
// Handle() is safe to call from any number of threads concurrently — the
// engine is read-only after construction, the cache shards its locks, and
// all telemetry is atomic.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "ctfl/serve/lru_cache.h"
#include "ctfl/serve/protocol.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace serve {

struct ServiceConfig {
  /// Total cached RELATED_FOR_TEST results across shards (0 disables).
  size_t lru_capacity = 256;
  size_t lru_shards = 8;
  /// Container bytes of the bundle backing the engine (reported by STATS).
  uint64_t bundle_bytes = 0;
  /// Trace-kernel shard threads applied to every query (a server-local
  /// execution knob, not a wire field; results are bit-identical at any
  /// count, so it never enters the RELATED_FOR_TEST cache key).
  int trace_threads = 1;
  /// Optional record/replay hook (src/ctfl/replay/): invoked once per
  /// handled request with the decoded request and the response about to be
  /// returned, after all counters were bumped. Called from whichever thread
  /// runs Handle() — the tap must be thread-safe. Empty = no recording.
  std::function<void(const Request&, const Response&)> request_tap;
  /// Streaming mode: reports how many delta-log rounds the host process
  /// has folded into its live scores (STATS `rounds_folded`, protocol
  /// v3). Called from whichever thread runs Handle() — must be
  /// thread-safe (typically a relaxed atomic load). Empty = 0 (static
  /// bundle).
  std::function<uint64_t()> rounds_folded_fn;
};

class QueryService {
 public:
  QueryService(store::QueryEngine engine, ServiceConfig config = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  const store::QueryEngine& engine() const { return engine_; }

  /// Answers one decoded request. Never fails at this layer: server-side
  /// errors (bad test index, ...) travel inside Response::status.
  Response Handle(const Request& request);

  /// Decodes one frame payload, handles it, and returns the encoded
  /// response payload. Malformed payloads yield an encoded error response
  /// (echoing whatever header bytes were readable) rather than a Status —
  /// the connection stays usable. `shutdown_requested` is set to true when
  /// the frame was a SHUTDOWN op (the response must still be written back
  /// before the server drains).
  std::string HandlePayload(std::string_view payload,
                            bool* shutdown_requested);

  /// Point-in-time service counters + bundle shape.
  ServerStats Stats() const;

 private:
  struct RelatedKey {
    uint64_t test_index = 0;
    uint64_t tau_w_bits = 0;
    uint64_t max_records = 0;
    bool operator==(const RelatedKey& o) const {
      return test_index == o.test_index && tau_w_bits == o.tau_w_bits &&
             max_records == o.max_records;
    }
  };
  struct RelatedKeyHash {
    size_t operator()(const RelatedKey& k) const;
  };

  Response HandleRelated(const Request& request);
  Response HandleRelatedForTest(const Request& request);
  Response HandleEvaluate(const Request& request);
  void FillStats(Response* response) const;

  store::QueryEngine engine_;
  const ServiceConfig config_;
  ShardedLruCache<RelatedKey, store::RelatedResult, RelatedKeyHash> cache_;
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> errors_total_{0};
  std::atomic<uint64_t> related_requests_{0};
  std::atomic<uint64_t> related_for_test_requests_{0};
  std::atomic<uint64_t> evaluate_requests_{0};
  /// Exact-fallback lanes summed over every lookup (cache hits replay the
  /// cached result's count — the client-visible totals stay additive).
  std::atomic<uint64_t> exact_fallbacks_{0};
};

}  // namespace serve
}  // namespace ctfl

#endif  // CTFL_SERVE_SERVICE_H_
