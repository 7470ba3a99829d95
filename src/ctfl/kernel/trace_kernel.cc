#include "ctfl/kernel/trace_kernel.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <numeric>

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
      return kernel_detail::MatchStripeNeon;
    case TraceIsa::kScalar:
      return kernel_detail::MatchStripeScalar;
  }
  return kernel_detail::MatchStripeScalar;
}

}  // namespace

Result<TraceKernelKind> ParseTraceKernelKind(const std::string& name) {
  if (name == "legacy") return TraceKernelKind::kLegacy;
  if (name == "blocked") return TraceKernelKind::kBlocked;
  return Status::InvalidArgument("unknown trace kernel '" + name +
                                 "' (expected legacy|blocked)");
}

const char* TraceKernelKindName(TraceKernelKind kind) {
  return kind == TraceKernelKind::kLegacy ? "legacy" : "blocked";
}

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
  for (size_t r = 0; r < records_.size(); ++r) {
    CTFL_CHECK(records_[r] != nullptr);
    CTFL_CHECK(records_[r]->size() == static_cast<size_t>(num_rules_));
    const size_t block = r / 64;
    const uint64_t lane = 1ULL << (r % 64);
    full_mask_[block] |= lane;
    records_[r]->ForEachSetBit([&](size_t rule) {
      bits_[WordIndex(rule, block)] |= lane;
    });
  }
}

TraceKernel::Support TraceKernel::Prepare(
    const std::vector<std::pair<int, double>>& supp, double threshold,
    Cmp cmp, double eps) {
  Support s;
  s.cmp = cmp;
  s.threshold = threshold;
  s.eps = eps;
  const size_t m = supp.size();
  s.rules.reserve(m);
  s.weights.reserve(m);
  double weight_sum = 0.0;
  for (const auto& [rule, weight] : supp) {
    s.rules.push_back(rule);
    s.weights.push_back(weight);
    weight_sum += weight;
  }
  // Descending weight, ascending rule tie-break: deterministic pruning
  // order regardless of the caller's float quirks.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&s](size_t a, size_t b) {
    if (s.weights[a] != s.weights[b]) return s.weights[a] > s.weights[b];
    return s.rules[a] < s.rules[b];
  });
  s.sorted_rules.resize(m);
  s.sorted_weights.resize(m);
  for (size_t i = 0; i < m; ++i) {
    s.sorted_rules[i] = s.rules[order[i]];
    s.sorted_weights[i] = s.weights[order[i]];
  }
  // Fixed-order suffix sums: the upper-bound weights used for pruning are
  // computed once here, independent of any pruning decision.
  s.suffix.assign(m + 1, 0.0);
  for (size_t i = m; i-- > 0;) {
    s.suffix[i] = s.suffix[i + 1] + s.sorted_weights[i];
  }
  // Band center: the exact comparison accepts when the ascending-order
  // overlap reaches (roughly) this value.
  s.pivot = cmp == Cmp::kGeThreshold ? threshold : threshold - eps;
  // Conservative bound on the float drift between any two summation
  // orders of <= m positive terms bounded by weight_sum, plus the
  // comparison's own rounding: 2(m-1)*u*S covers the reordering error
  // rigorously; the (m + 4) * 4 * DBL_EPSILON factor leaves a wide
  // margin. Lanes inside +-safety of the pivot are re-decided exactly.
  const double scale =
      weight_sum + std::abs(threshold) + std::abs(eps) + 1.0;
  s.safety = scale * static_cast<double>(m + 4) * 4.0 * DBL_EPSILON;
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
  if (s.cmp == Cmp::kGeThreshold) return !(overlap < s.threshold);
  return overlap + s.eps >= s.threshold;
}

size_t TraceKernel::Match(const Support& s, const uint64_t* candidate_mask,
                          uint64_t* out_related, TraceKernelStats* stats,
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
        stripe(*this, s, candidate_mask, out_related, 0, nb);
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
      results[i] = stripe(*this, s, candidate_mask, out_related, lo, hi);
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
