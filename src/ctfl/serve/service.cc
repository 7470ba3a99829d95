#include "ctfl/serve/service.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace serve {
namespace {

telemetry::Counter& RequestCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.serve.requests");
  return c;
}

telemetry::Counter& ErrorCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.serve.errors");
  return c;
}

telemetry::Counter& CacheHitCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.serve.cache_hits");
  return c;
}

telemetry::Counter& CacheMissCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.serve.cache_misses");
  return c;
}

telemetry::Histogram& LatencyHistogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "ctfl.serve.latency_us");
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

size_t QueryService::RelatedKeyHash::operator()(const RelatedKey& k) const {
  // FNV-1a over the packed fields; shard + bucket dispersal only.
  uint64_t h = 1469598103934665603ull;
  const uint64_t fields[] = {k.test_index, k.tau_w_bits, k.max_records};
  for (uint64_t f : fields) {
    for (int i = 0; i < 8; ++i) {
      h ^= (f >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return static_cast<size_t>(h);
}

QueryService::QueryService(store::QueryEngine engine, ServiceConfig config)
    : engine_(std::move(engine)),
      config_(config),
      cache_(config.lru_capacity, config.lru_shards) {}

Response QueryService::Handle(const Request& request) {
  CTFL_SPAN("ctfl.serve.request");
  const auto start = std::chrono::steady_clock::now();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  RequestCounter().Add(1);

  Response response;
  response.op = request.op;
  response.request_id = request.request_id;
  switch (request.op) {
    case Op::kRelated:
      response = HandleRelated(request);
      break;
    case Op::kRelatedForTest:
      response = HandleRelatedForTest(request);
      break;
    case Op::kEvaluate:
      response = HandleEvaluate(request);
      break;
    case Op::kStats:
    case Op::kShutdown:
      FillStats(&response);
      break;
  }
  if (!response.status.ok()) {
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    ErrorCounter().Add(1);
  }
  const double micros =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count();
  LatencyHistogram().Observe(micros);
  if (config_.request_tap) config_.request_tap(request, response);
  return response;
}

Response QueryService::HandleRelated(const Request& request) {
  Response response;
  response.op = request.op;
  response.request_id = request.request_id;
  related_requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t want =
      engine_.bundle().schema
          ? static_cast<size_t>(engine_.bundle().schema->num_features())
          : 0;
  if (request.related.instance.values.size() != want) {
    response.status = Status::InvalidArgument(
        StrFormat("RELATED instance has %zu values, schema has %zu features",
                  request.related.instance.values.size(), want));
    return response;
  }
  // A wire value reaches the encoder's category test: reject a NaN, an
  // infinity or a non-index before anything reads it as one.
  response.status = CheckDiscreteValues(*engine_.model().schema(),
                                        request.related.instance.values);
  if (!response.status.ok()) return response;
  store::QueryOptions options = request.related.options;
  options.trace_threads = config_.trace_threads;
  response.related = engine_.Related(request.related.instance, options);
  exact_fallbacks_.fetch_add(
      static_cast<uint64_t>(response.related.exact_fallbacks),
      std::memory_order_relaxed);
  return response;
}

Response QueryService::HandleRelatedForTest(const Request& request) {
  Response response;
  response.op = request.op;
  response.request_id = request.request_id;
  related_for_test_requests_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t test_index = request.related_for_test.test_index;
  if (test_index >= engine_.bundle().tests.size()) {
    response.status = Status::OutOfRange(
        StrFormat("RELATED_FOR_TEST index %llu out of range (bundle has "
                  "%zu tests)",
                  static_cast<unsigned long long>(test_index),
                  engine_.bundle().tests.size()));
    return response;
  }
  const store::QueryOptions& options = request.related_for_test.options;
  // Normalize the tau_w default so "use the origin threshold" and an
  // explicit origin-threshold request share one cache entry.
  const double tau_w =
      options.tau_w < 0.0 ? engine_.origin_tau_w() : options.tau_w;
  RelatedKey key;
  key.test_index = test_index;
  key.tau_w_bits = DoubleBits(tau_w);
  key.max_records = options.max_records;
  if (auto cached = cache_.Get(key)) {
    CacheHitCounter().Add(1);
    response.related = *std::move(cached);
  } else {
    CacheMissCounter().Add(1);
    store::QueryOptions effective = options;
    effective.trace_threads = config_.trace_threads;
    response.related =
        engine_.RelatedForTest(static_cast<size_t>(test_index), effective);
    cache_.Put(key, response.related);
  }
  // Cache hits replay the cached lookup's count: the STATS total stays a
  // per-request sum, independent of cache state.
  exact_fallbacks_.fetch_add(
      static_cast<uint64_t>(response.related.exact_fallbacks),
      std::memory_order_relaxed);
  return response;
}

Response QueryService::HandleEvaluate(const Request& request) {
  Response response;
  response.op = request.op;
  response.request_id = request.request_id;
  evaluate_requests_.fetch_add(1, std::memory_order_relaxed);
  store::EvalOptions eval = request.evaluate.options;
  eval.trace_threads = config_.trace_threads;
  response.report = engine_.Evaluate(eval);
  exact_fallbacks_.fetch_add(
      static_cast<uint64_t>(response.report.exact_fallbacks),
      std::memory_order_relaxed);
  response.origin_tau_w = engine_.origin_tau_w();
  response.origin_delta = engine_.origin_delta();
  response.origin_micro = engine_.bundle().meta.micro_scores;
  response.origin_macro = engine_.bundle().meta.macro_scores;
  return response;
}

void QueryService::FillStats(Response* response) const {
  response->stats = Stats();
}

std::string QueryService::HandlePayload(std::string_view payload,
                                        bool* shutdown_requested) {
  Result<Request> request = DecodeRequest(payload);
  if (!request.ok()) {
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    RequestCounter().Add(1);
    ErrorCounter().Add(1);
    // Echo whatever header survived so a pipelining client can still match
    // the error to its request.
    Response error;
    if (payload.size() >= 10) {
      const uint8_t op_byte = static_cast<uint8_t>(payload[1]);
      if (op_byte >= static_cast<uint8_t>(Op::kRelated) &&
          op_byte <= static_cast<uint8_t>(Op::kShutdown)) {
        error.op = static_cast<Op>(op_byte);
      }
      uint64_t id = 0;
      for (int i = 0; i < 8; ++i) {
        id |= static_cast<uint64_t>(static_cast<uint8_t>(payload[2 + i]))
              << (8 * i);
      }
      error.request_id = id;
    }
    error.status = request.status();
    return EncodeResponse(error);
  }
  if (request->op == Op::kShutdown && shutdown_requested != nullptr) {
    *shutdown_requested = true;
  }
  return EncodeResponse(Handle(*request));
}

ServerStats QueryService::Stats() const {
  ServerStats stats;
  stats.requests_total = requests_total_.load(std::memory_order_relaxed);
  stats.errors_total = errors_total_.load(std::memory_order_relaxed);
  stats.related_requests = related_requests_.load(std::memory_order_relaxed);
  stats.related_for_test_requests =
      related_for_test_requests_.load(std::memory_order_relaxed);
  stats.evaluate_requests =
      evaluate_requests_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.bundle_bytes = config_.bundle_bytes;
  stats.num_participants =
      static_cast<uint32_t>(engine_.num_participants());
  stats.num_rules = static_cast<uint32_t>(engine_.bundle().num_rules());
  stats.train_records = engine_.bundle().total_train_records();
  stats.test_records = engine_.bundle().tests.size();
  stats.origin_tau_w = engine_.origin_tau_w();
  stats.origin_delta = engine_.origin_delta();
  stats.exact_fallbacks = exact_fallbacks_.load(std::memory_order_relaxed);
  stats.trace_isa = TraceIsaName(CurrentTraceIsa());
  stats.participant_names = engine_.bundle().meta.participant_names;
  stats.rounds_folded =
      config_.rounds_folded_fn ? config_.rounds_folded_fn() : 0;
  return stats;
}

}  // namespace serve
}  // namespace ctfl
