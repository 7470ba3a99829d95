#ifndef CTFL_KERNEL_TRACE_KERNEL_H_
#define CTFL_KERNEL_TRACE_KERNEL_H_

// Word-parallel blocked tracing kernel — the Eq. 4 matching engine behind
// ContributionTracer (core/), which store::QueryEngine and the streaming
// scorer call.
//
// The scalar tau_w loop (tests/trace_oracle.h) scores every (support set,
// training record) pair one rule bit at a time: |supp| Bitset::Test calls
// per candidate. This kernel instead packs each class bucket's training
// activations into a *transposed, rule-major bit-matrix* — one contiguous
// bitmap per rule over record index — so scoring becomes, per 64-record
// block, `overlap[lane] += weight` driven by word AND + lane accumulation:
// only *activated* (rule, record) pairs cost work, and 64 records share
// every rule-row load.
//
// Three independent accelerations compose on top (DESIGN.md §10):
//
//  - Tiling: the bit-matrix is stored tile-major — blocks are grouped
//    into fixed-width tiles and all rule rows of one tile are contiguous —
//    so a full support-set sweep over one block stripe touches an
//    L2-resident working set instead of striding num_blocks words between
//    rules.
//  - SIMD: per-ISA translation units (a portable unit for the scalar and
//    NEON tiers, AVX2, AVX-512; util/cpu_features.h) evaluate the 64
//    per-lane int32 sums and the checkpoint comparisons with vector masked
//    adds and compares. Which tier runs is selected once per process
//    (CTFL_TRACE_ISA / --trace-isa) or per call via TraceMatchOptions.
//  - Sharding: Match splits the block range into tile-aligned stripes
//    across the process compute pool (util/thread_pool.h). Stripes own
//    disjoint out_related words, and per-stripe stats are committed in
//    ascending stripe order, so results and stats are independent of the
//    worker schedule.
//
// Early-exit pruning processes the support rules in descending weight
// order, keeping per-lane *exact integer* sums of fixed-point weights:
// Prepare scales each weight by a power of two and floors it to int32, and
// derives one accept bound and one kill bound per rule count. A lane whose
// sum reaches the accept bound is related; a lane whose sum plus
// everything still unprocessed stays below the kill bound is not. Both
// tests run only at a checkpoint schedule Prepare builds per support; the
// rules between checkpoints are plain masked adds. Integer adds and
// compares are exact and order-free, so every tier, lane grouping and
// stripe split makes the same decisions by construction.
//
// Bit-identity contract (DESIGN.md §10): the kernel's accept/reject
// decisions are *exactly* those of the scalar loop, which accumulates
// weights in ascending rule order and compares `!(overlap < threshold)`.
// Both integer bounds sit a float-drift margin past the threshold (a
// rigorous bound on the ascending-order sum's rounding error), so a lane
// they decide is decided as the scalar loop decides it; lanes they cannot
// decide fall back to the scalar ascending-order comparison on the
// record's original activation bitset. Pruning therefore changes which
// records get *scanned*, never which records get *matched*.

#include <cstdint>
#include <utility>
#include <vector>

#include "ctfl/util/bitset.h"
#include "ctfl/util/cpu_features.h"

namespace ctfl {

/// Work accounting of one (or many accumulated) Match calls.
struct TraceKernelStats {
  /// Records in the blocks the kernel entered (each counted once, whether
  /// it was decided early or scanned to the end). Always <= the number of
  /// candidates submitted.
  int64_t records_scanned = 0;
  /// 64-record blocks whose lanes were all decided before the last rule
  /// of the support.
  int64_t blocks_pruned = 0;
  /// Lanes the integer bounds could not decide, re-decided by the exact
  /// scalar comparison (rare: their overlap is within the fixed-point
  /// resolution plus the float-drift margin of the threshold).
  int64_t exact_fallbacks = 0;
};

/// Per-call implementation selectors of Match. Both knobs are pure
/// implementation choices: results and stats are bit-identical at every
/// (isa, threads) combination.
struct TraceMatchOptions {
  /// SIMD tier; defaults to the process-wide selection.
  TraceIsa isa = CurrentTraceIsa();
  /// Worker threads sharding the block range (1 = serial, 0 = hardware
  /// concurrency). Inside another parallel section the stripes share that
  /// section's thread budget.
  int threads = 1;
};

/// Transposed, cache-blocked activation bit-matrix over one class bucket
/// plus the pruned matcher. Records are addressed by their *bucket
/// position* (0..num_records), the order the caller packed them in (the
/// tracer's activation order, DESIGN.md §10.1). Each lane is decided on
/// its own record, so the order moves work, never a decision.
class TraceKernel {
 public:
  TraceKernel() = default;

  /// Packs `records` (activation bitsets in bucket order, each `num_rules`
  /// wide) into the tile-major bit-matrix, one 64x64 bit transpose per
  /// (block, 64-rule word column). The pointed-to bitsets must outlive the
  /// kernel: they back the exact ambiguous-lane fallback.
  TraceKernel(std::vector<const Bitset*> records, int num_rules);

  size_t num_records() const { return records_.size(); }
  size_t num_blocks() const { return num_blocks_; }
  int num_rules() const { return num_rules_; }
  bool empty() const { return records_.empty(); }
  /// Blocks per cache tile (a power of two; sized so one full support
  /// sweep over a tile stripe stays L2-resident).
  size_t tile_blocks() const { return tile_blocks_; }

  /// Word `block` of rule `rule`'s transposed row: bit `i` is set iff
  /// record `block * 64 + i` activates the rule. Callers use this for
  /// word-driven frequency accumulation over matched lanes.
  uint64_t rule_word(int rule, size_t block) const {
    return bits_[WordIndex(static_cast<size_t>(rule), block)];
  }

  /// Valid-lane mask of `block` (all ones except the trailing block).
  uint64_t full_mask_word(size_t block) const { return full_mask_[block]; }

  /// A support set prepared for matching: the exact comparison's inputs
  /// plus the fixed-point pruning schedule (DESIGN.md §10.2-10.3). Every
  /// lane sum stays in [0, 2^30), and every bound is clamped to [0, 2^30].
  struct Support {
    std::vector<int> rules;       ///< ascending rule coordinates
    std::vector<double> weights;  ///< aligned to `rules`
    /// A record is related iff !(overlap < threshold), the overlap summed
    /// over `weights` in ascending rule order.
    double threshold = 0.0;
    std::vector<int> sorted_rules;  ///< descending weight, rule tie-break
    /// floor(weight * 2^s) per sorted rule, for the support's scale 2^s.
    std::vector<int32_t> sorted_q;
    /// kill_q[c]: after c sorted rules, a lane whose sum is below it
    /// cannot reach the threshold (c = 0..m; non-decreasing).
    std::vector<int32_t> kill_q;
    /// A lane whose sum reaches it clears the threshold.
    int32_t accept_q = 0;
    /// Fewest sorted rules after which some lane can reach accept_q
    /// (m + 1 when none can).
    size_t accept_from = 0;
    /// Counts c of processed sorted rules after which the stripe tests
    /// its undecided lanes: 4, 8, every 8 after that, then m - 1 and m
    /// (ascending; empty when m = 0).
    std::vector<size_t> checkpoints;
  };

  /// Builds a Support from `supp` (ascending (rule, weight) pairs — the
  /// scalar loop's iteration order) and the exact comparison value
  /// `threshold` (e.g. tau_w * weight_sum - kRatioEps). A weight that is
  /// negative or not finite, or a threshold that is not finite, yields
  /// bounds that decide nothing: every lane then takes ExactRelated.
  static Support Prepare(const std::vector<std::pair<int, double>>& supp,
                         double threshold);

  /// Matches every record against the support at `options`' ISA tier and
  /// thread sharding. Sets matched-lane bits in `out_related` (num_blocks()
  /// words, overwritten) and returns the match count. Decisions are
  /// bit-identical to the scalar ascending-order loop, and decisions and
  /// stats to every other (isa, threads) combination. `stats` (optional)
  /// accumulates work accounting.
  size_t Match(const Support& support, uint64_t* out_related,
               TraceKernelStats* stats,
               const TraceMatchOptions& options) const;

  /// Scalar reference decision for one record (ascending accumulation) —
  /// the exact fallback for lanes the integer bounds cannot decide,
  /// exposed for the stripe body and differential tests.
  bool ExactRelated(const Support& support, size_t record) const;

 private:
  size_t WordIndex(size_t rule, size_t block) const {
    const size_t tile = block >> tile_shift_;
    return ((tile * static_cast<size_t>(num_rules_) + rule)
            << tile_shift_) +
           (block & (tile_blocks_ - 1));
  }

  std::vector<const Bitset*> records_;
  int num_rules_ = 0;
  size_t num_blocks_ = 0;
  /// Blocks per tile (power of two) and its log2. The trailing tile is
  /// zero-padded to the full width so WordIndex needs no bounds logic.
  size_t tile_blocks_ = 1;
  int tile_shift_ = 0;
  size_t num_tiles_ = 0;
  /// Tile-major: bits_[((tile * num_rules + rule) << tile_shift) + j]
  /// holds word `tile * tile_blocks + j` of `rule`'s transposed row.
  std::vector<uint64_t> bits_;
  /// Valid-lane mask per block (all ones except the trailing block).
  std::vector<uint64_t> full_mask_;
};

namespace kernel_detail {

/// Result of one stripe sweep: matches found + the stripe's stats.
struct StripeResult {
  size_t related = 0;
  TraceKernelStats stats;
};

/// One contiguous block range [block_lo, block_hi) of a Match call. Every
/// implementation writes out_related[b] for each b in range and returns
/// bit-identical decisions and stats.
using StripeFn = StripeResult (*)(const TraceKernel& kernel,
                                  const TraceKernel::Support& support,
                                  uint64_t* out_related, size_t block_lo,
                                  size_t block_hi);

/// The portable unit: the scalar and NEON tiers.
StripeResult MatchStripePortable(const TraceKernel& kernel,
                                 const TraceKernel::Support& support,
                                 uint64_t* out_related, size_t block_lo,
                                 size_t block_hi);
/// Compiled from per-ISA translation units; on architectures where the
/// tier does not exist they forward to MatchStripePortable (the dispatch
/// layer never selects an unavailable tier, this is belt-and-braces).
StripeResult MatchStripeAvx2(const TraceKernel& kernel,
                             const TraceKernel::Support& support,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi);
StripeResult MatchStripeAvx512(const TraceKernel& kernel,
                               const TraceKernel::Support& support,
                               uint64_t* out_related, size_t block_lo,
                               size_t block_hi);

}  // namespace kernel_detail

}  // namespace ctfl

#endif  // CTFL_KERNEL_TRACE_KERNEL_H_
