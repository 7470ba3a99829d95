#include "ctfl/kernel/trace_kernel.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>

#include "ctfl/util/bit_transpose.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {
namespace {

// One tile stripe (num_rules transposed rows x tile_blocks words) should
// stay L2-resident across a full support-set sweep; budget ~1 MiB and
// round down to a power of two so block -> (tile, offset) is shift/mask.
size_t PickTileBlocks(int num_rules) {
  const size_t budget_words = (size_t{1} << 20) / sizeof(uint64_t);
  const size_t per_rule =
      budget_words / static_cast<size_t>(std::max(num_rules, 1));
  return std::clamp<size_t>(std::bit_floor(std::max<size_t>(per_rule, 1)),
                            16, size_t{1} << 16);
}

kernel_detail::StripeFn ResolveStripeFn(TraceIsa isa) {
  switch (isa) {
    case TraceIsa::kAvx512:
      return kernel_detail::MatchStripeAvx512;
    case TraceIsa::kAvx2:
      return kernel_detail::MatchStripeAvx2;
    case TraceIsa::kNeon:
    case TraceIsa::kScalar:
      break;
  }
  return kernel_detail::MatchStripePortable;
}

// Lane sums stay below 2^30 and every bound is clamped to [0, 2^30], so
// neither the int32 lanes nor the bound arithmetic can overflow. Clamping
// changes no decision: for any lane sum Q in [0, 2^30), Q >= clamp(A) iff
// Q >= A and Q < clamp(K) iff Q < K.
constexpr int64_t kLaneLimit = int64_t{1} << 30;

int32_t ClampBound(int64_t bound) {
  return static_cast<int32_t>(std::clamp<int64_t>(bound, 0, kLaneLimit));
}

// floor(x * 2^s) and ceil(x * 2^s), clamped to a range wide enough for
// ClampBound. std::ldexp is exact unless the result underflows, and then
// the exact product lies strictly inside (-1, 1): the sign of x settles
// the floor or ceil of a product that rounded to 0.
int64_t FloorScaled(double x, int s) {
  double v = std::floor(std::ldexp(x, s));
  if (x < 0.0) v = std::min(v, -1.0);
  return static_cast<int64_t>(std::clamp(v, -1.0, 4.0 * kLaneLimit));
}

int64_t CeilScaled(double x, int s) {
  double v = std::ceil(std::ldexp(x, s));
  if (x > 0.0) v = std::max(v, 1.0);
  return static_cast<int64_t>(std::clamp(v, -1.0, 4.0 * kLaneLimit));
}

}  // namespace

TraceKernel::TraceKernel(std::vector<const Bitset*> records, int num_rules)
    : records_(std::move(records)),
      num_rules_(num_rules),
      num_blocks_((records_.size() + 63) / 64) {
  CTFL_CHECK(num_rules_ >= 0);
  tile_blocks_ = PickTileBlocks(num_rules_);
  tile_shift_ = std::countr_zero(tile_blocks_);
  num_tiles_ = (num_blocks_ + tile_blocks_ - 1) / tile_blocks_;
  // Trailing tile zero-padded to the full width: WordIndex stays pure
  // shift/mask arithmetic with no tail special-case.
  bits_.assign(num_tiles_ * static_cast<size_t>(num_rules_) * tile_blocks_,
               0);
  full_mask_.assign(num_blocks_, 0);
  for (const Bitset* record : records_) {
    CTFL_CHECK(record != nullptr);
    CTFL_CHECK(record->size() == static_cast<size_t>(num_rules_));
  }
  // One 64x64 transpose per (block, 64-rule word column): the block's 64
  // record words of the column become the column's 64 rule rows. Lanes
  // past the bucket's end are zero rows.
  const size_t rules = static_cast<size_t>(num_rules_);
  uint64_t m[64];
  for (size_t block = 0; block < num_blocks_; ++block) {
    const size_t lo = block * 64;
    const size_t lanes = std::min<size_t>(64, records_.size() - lo);
    full_mask_[block] = ~0ULL >> (64 - lanes);
    for (size_t col = 0; col * 64 < rules; ++col) {
      for (size_t i = 0; i < lanes; ++i) m[i] = records_[lo + i]->words()[col];
      std::fill(m + lanes, m + 64, uint64_t{0});
      TransposeBits64(m);
      const size_t rows = std::min<size_t>(64, rules - col * 64);
      for (size_t j = 0; j < rows; ++j) {
        bits_[WordIndex(col * 64 + j, block)] = m[j];
      }
    }
  }
}

TraceKernel::Support TraceKernel::Prepare(
    const std::vector<std::pair<int, double>>& supp, double threshold) {
  Support s;
  s.threshold = threshold;
  const size_t m = supp.size();
  s.rules.reserve(m);
  s.weights.reserve(m);
  double weight_sum = 0.0;
  bool valid = std::isfinite(threshold);
  for (const auto& [rule, weight] : supp) {
    s.rules.push_back(rule);
    s.weights.push_back(weight);
    valid = valid && std::isfinite(weight) && weight >= 0.0;
    weight_sum += weight;
  }
  if (!valid || !std::isfinite(weight_sum)) {
    // No sound bounds exist: an empty schedule whose bounds decide
    // nothing, so every lane takes ExactRelated.
    s.kill_q = {0};
    s.accept_q = static_cast<int32_t>(kLaneLimit);
    s.accept_from = 1;
    return s;
  }
  // Descending weight, ascending rule tie-break: deterministic pruning
  // order regardless of the caller's float quirks.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&s](size_t a, size_t b) {
    if (s.weights[a] != s.weights[b]) return s.weights[a] > s.weights[b];
    return s.rules[a] < s.rules[b];
  });
  // Scale 2^shift with every lane sum below 2^30: q_i = floor(w_i * 2^shift)
  // is exact (a power-of-two scaling, then a floor), and a lane's real
  // overlap H then satisfies Q <= H * 2^shift < Q + hits.
  int exponent = 0;
  std::frexp(weight_sum, &exponent);
  int shift = 30 - exponent;
  s.sorted_rules.resize(m);
  s.sorted_q.resize(m);
  while (true) {
    int64_t total = 0;
    for (size_t i = 0; i < m; ++i) {
      s.sorted_rules[i] = s.rules[order[i]];
      const int64_t q = FloorScaled(s.weights[order[i]], shift);
      s.sorted_q[i] = static_cast<int32_t>(q);
      total += q;
    }
    if (total < kLaneLimit) break;
    --shift;  // weight_sum rounded low; at most a step or two
  }
  // Float drift: the scalar loop's ascending-order overlap D differs from
  // H by at most (m - 1) * u * weight_sum. `safety` bounds that with a
  // wide margin (DBL_EPSILON = 2u, times 4 (m + 4) on a larger scale), so
  // H >= threshold + safety implies !(D < threshold), and
  // H <= threshold - safety implies D < threshold.
  const double scale = weight_sum + std::abs(threshold) + 1.0;
  const double safety =
      scale * static_cast<double>(m + 4) * 4.0 * DBL_EPSILON;
  const double inf = std::numeric_limits<double>::infinity();
  // Accept when Q >= ceil(RU(threshold + safety) * 2^shift): H * 2^shift
  // >= Q then reaches threshold + safety.
  const int64_t accept =
      CeilScaled(std::nextafter(threshold + safety, inf), shift);
  s.accept_q = ClampBound(accept);
  // Kill after c sorted rules when Q + c + sum_{j >= c} (q_j + 1) <= K,
  // K = floor(RD(threshold - safety) * 2^shift): the processed hits add
  // at most Q + c to H * 2^shift and the unprocessed rules at most
  // sum_{j >= c} (q_j + 1), so H * 2^shift <= K. kill_q[c] is that
  // condition as Q < kill_q[c].
  const int64_t kill = FloorScaled(std::nextafter(threshold - safety, -inf),
                                   shift);
  s.kill_q.resize(m + 1);
  int64_t tail = 0;  // sum_{j >= c} (q_j + 1)
  for (size_t c = m + 1; c-- > 0;) {
    if (c < m) tail += int64_t{s.sorted_q[c]} + 1;
    s.kill_q[c] = ClampBound(kill - (static_cast<int64_t>(c) + tail) + 1);
  }
  // Checkpoints: after 4 and 8 sorted rules, then every 8, then m - 1 and
  // m. Both decisions are monotone in c, so a sparser schedule decides
  // every lane as a test after each rule would; m - 1 keeps blocks_pruned
  // ("every lane decided before the last rule") exact.
  for (size_t c = 4; c + 1 < m; c = c < 8 ? 8 : c + 8) {
    s.checkpoints.push_back(c);
  }
  if (m >= 2) s.checkpoints.push_back(m - 1);
  if (m >= 1) s.checkpoints.push_back(m);
  // The largest sum a lane can hold after c rules is the prefix sum of q.
  s.accept_from = m + 1;
  int64_t reach = 0;
  for (size_t c = 0; c <= m; ++c) {
    if (reach >= s.accept_q) {
      s.accept_from = c;
      break;
    }
    if (c < m) reach += s.sorted_q[c];
  }
  return s;
}

bool TraceKernel::ExactRelated(const Support& s, size_t record) const {
  const Bitset& act = *records_[record];
  double overlap = 0.0;
  const size_t m = s.rules.size();
  for (size_t i = 0; i < m; ++i) {
    // Ascending rule order — the scalar reference accumulation.
    if (act.Test(static_cast<size_t>(s.rules[i]))) overlap += s.weights[i];
  }
  return !(overlap < s.threshold);
}

size_t TraceKernel::Match(const Support& s, uint64_t* out_related,
                          TraceKernelStats* stats,
                          const TraceMatchOptions& options) const {
  const size_t nb = num_blocks_;
  if (nb == 0) return 0;
  const kernel_detail::StripeFn stripe = ResolveStripeFn(options.isa);

  // Tile-aligned sharding: every stripe's bit-matrix slice is contiguous
  // and no two stripes share an out_related word. 64 blocks (4096 lanes)
  // is the minimum worth a pool task.
  constexpr size_t kMinBlocksPerShard = 64;
  const int threads = ResolveThreadCount(options.threads);
  const size_t cap = std::max<size_t>(nb / kMinBlocksPerShard, 1);
  const size_t shards =
      std::min({static_cast<size_t>(threads), num_tiles_, cap});

  if (shards <= 1) {
    const kernel_detail::StripeResult r =
        stripe(*this, s, out_related, 0, nb);
    if (stats != nullptr) {
      stats->records_scanned += r.stats.records_scanned;
      stats->blocks_pruned += r.stats.blocks_pruned;
      stats->exact_fallbacks += r.stats.exact_fallbacks;
    }
    return r.related;
  }

  const size_t tiles_per_shard = (num_tiles_ + shards - 1) / shards;
  const size_t blocks_per_shard = tiles_per_shard * tile_blocks_;
  std::vector<kernel_detail::StripeResult> results(shards);
  ParallelFor(static_cast<int>(shards), 0, shards, [&](size_t i) {
    const size_t lo = std::min(nb, i * blocks_per_shard);
    const size_t hi = std::min(nb, lo + blocks_per_shard);
    if (lo < hi) {
      results[i] = stripe(*this, s, out_related, lo, hi);
    }
  });
  // Ordered commit (DESIGN.md §10): lane decisions land in disjoint
  // out_related words per stripe, and stats are folded in ascending
  // stripe order on this thread — totals are integer sums either way,
  // so results and stats are independent of the worker schedule and
  // identical to the serial sweep.
  size_t total_related = 0;
  for (const kernel_detail::StripeResult& r : results) {
    total_related += r.related;
    if (stats != nullptr) {
      stats->records_scanned += r.stats.records_scanned;
      stats->blocks_pruned += r.stats.blocks_pruned;
      stats->exact_fallbacks += r.stats.exact_fallbacks;
    }
  }
  return total_related;
}

}  // namespace ctfl
