#ifndef CTFL_KERNEL_TRACE_KERNEL_H_
#define CTFL_KERNEL_TRACE_KERNEL_H_

// Word-parallel blocked tracing kernel — the shared Eq. 4 matching engine
// behind ContributionTracer (core/) and store::QueryEngine.
//
// The scalar tau_w loop scores every (support set, training record) pair
// one rule bit at a time: |supp| Bitset::Test calls per candidate. This
// kernel instead packs each class bucket's training activations into a
// *transposed, rule-major bit-matrix* — one contiguous bitmap per rule
// over record index — so scoring becomes, per 64-record block,
// `overlap[lane] += weight` driven by word AND + lane accumulation: only
// *activated* (rule, record) pairs cost work, and 64 records share every
// rule-row load.
//
// Three independent accelerations compose on top (DESIGN.md §10):
//
//  - Tiling: the bit-matrix is stored tile-major — blocks are grouped
//    into fixed-width tiles and all rule rows of one tile are contiguous —
//    so a full support-set sweep over one block stripe touches an
//    L2-resident working set instead of striding num_blocks words between
//    rules.
//  - SIMD: per-ISA translation units (scalar / AVX2 / AVX-512 / NEON,
//    util/cpu_features.h) evaluate the 64 per-lane accumulators and the
//    checkpoint comparisons with vector masked adds and compares. Which
//    tier runs is selected once per process (CTFL_TRACE_ISA /
//    --trace-isa) or per call via TraceMatchOptions.
//  - Sharding: Match splits the block range into tile-aligned stripes
//    across the process compute pool (util/thread_pool.h). Stripes own
//    disjoint out_related words, and per-stripe stats are committed in
//    ascending stripe order, so results and stats are independent of the
//    worker schedule.
//
// Early-exit pruning processes the support rules in descending weight
// order keeping per-lane lower bounds; once the remaining (unprocessed)
// weight can no longer lift a lane over the threshold the lane is killed,
// and lanes whose lower bound already clears the threshold are accepted
// without scanning the rest (full-block accept). Blocks whose candidate
// mask is empty are skipped outright.
//
// Bit-identity contract (DESIGN.md §10): the kernel's accept/reject
// decisions are *exactly* those of the scalar loop, which accumulates
// weights in ascending rule order and compares with a fixed epsilon — on
// every ISA tier at every thread count. The descending-order pruning
// bounds are only ever trusted outside a conservative float-drift band
// (`Support::safety`, a rigorous bound on the reordering error of a
// positive-term sum); lanes that land inside the band fall back to the
// scalar ascending-order comparison on the record's original activation
// bitset. Pruning therefore changes which records get *scanned*, never
// which records get *matched*.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ctfl/util/bitset.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/result.h"

namespace ctfl {

/// Which Eq. 4 matching implementation a tracer / query engine uses. Both
/// produce bit-identical results; kLegacy is the scalar reference loop.
enum class TraceKernelKind {
  kLegacy,
  kBlocked,
};

/// Parses "legacy" / "blocked" (the CLI --trace-kernel values).
Result<TraceKernelKind> ParseTraceKernelKind(const std::string& name);
const char* TraceKernelKindName(TraceKernelKind kind);

/// Work accounting of one (or many accumulated) Match calls.
struct TraceKernelStats {
  /// Candidate records in blocks the kernel actually entered (every such
  /// record is counted once, whether it was decided early or scanned to
  /// the end). Always <= the number of candidates submitted.
  int64_t records_scanned = 0;
  /// 64-record blocks skipped without per-lane work (empty candidate
  /// mask) plus blocks whose lane scan ended before the full support was
  /// processed (all lanes decided early).
  int64_t blocks_pruned = 0;
  /// Lanes whose pruning bounds landed inside the float-drift band and
  /// were re-decided by the exact scalar comparison (rare).
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
/// position* (0..num_records), in the same order the scalar loop scans
/// them, so lane order == legacy match order.
class TraceKernel {
 public:
  TraceKernel() = default;

  /// Packs `records` (activation bitsets in bucket order, each `num_rules`
  /// wide) into the tile-major bit-matrix. The pointed-to bitsets must
  /// outlive the kernel: they back the exact ambiguous-lane fallback.
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

  /// How the exact (legacy-identical) accept decision is phrased.
  enum class Cmp {
    /// Accept iff !(overlap < threshold) — the tracer / query-engine
    /// Eq. 4 comparison (threshold already carries its kRatioEps slack).
    kGeThreshold,
    /// Accept iff (overlap + eps >= threshold) — the Max-Miner
    /// group-prefilter comparison (theta check).
    kPlusEpsGe,
  };

  /// A support set prepared for matching. `rules`/`weights` keep the
  /// caller's ascending rule order (the exact-fallback accumulation
  /// order); `order` re-sorts them by descending weight for pruning.
  struct Support {
    std::vector<int> rules;        ///< ascending rule coordinates
    std::vector<double> weights;   ///< aligned to `rules`
    std::vector<int> sorted_rules; ///< descending weight, rule tie-break
    std::vector<double> sorted_weights;
    /// suffix[i] = sum of sorted_weights[i..] (suffix[m] = 0): the weight
    /// still unprocessed before sorted rule i — deterministic, fixed
    /// accumulation order, independent of any pruning decision.
    std::vector<double> suffix;
    Cmp cmp = Cmp::kGeThreshold;
    double threshold = 0.0;  ///< exact comparison value
    double eps = 0.0;        ///< kPlusEpsGe only
    /// Band center for pruning decisions (threshold, shifted by -eps for
    /// kPlusEpsGe) and the conservative float-drift half-width around it.
    double pivot = 0.0;
    double safety = 0.0;
  };

  /// Builds a Support from `supp` (ascending (rule, weight) pairs — the
  /// scalar loop's iteration order). For kGeThreshold, `threshold` is the
  /// exact comparison value (e.g. tau_w * weight_sum - kRatioEps); for
  /// kPlusEpsGe it is the raw theta and `eps` the slack added to overlap.
  static Support Prepare(const std::vector<std::pair<int, double>>& supp,
                         double threshold, Cmp cmp = Cmp::kGeThreshold,
                         double eps = 0.0);

  /// Matches every record (or only those in `candidate_mask`, a
  /// num_blocks()-word lane bitmap; nullptr = all records) against the
  /// support. Sets matched-lane bits in `out_related` (num_blocks()
  /// words, overwritten) and returns the match count. Decisions are
  /// bit-identical to the scalar ascending-order loop. `stats` (optional)
  /// accumulates work accounting.
  size_t Match(const Support& support, const uint64_t* candidate_mask,
               uint64_t* out_related, TraceKernelStats* stats) const {
    return Match(support, candidate_mask, out_related, stats,
                 TraceMatchOptions());
  }

  /// Same, with explicit ISA tier + thread sharding. Results and stats
  /// are bit-identical across every (isa, threads) combination.
  size_t Match(const Support& support, const uint64_t* candidate_mask,
               uint64_t* out_related, TraceKernelStats* stats,
               const TraceMatchOptions& options) const;

  /// Scalar reference decision for one record (ascending accumulation) —
  /// the exact fallback for lanes inside the float-drift band, exposed
  /// for the per-ISA stripe kernels and differential tests.
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
/// implementation writes out_related[b] for each b in range (zeroing
/// non-candidate blocks) and returns bit-identical decisions and stats.
using StripeFn = StripeResult (*)(const TraceKernel& kernel,
                                  const TraceKernel::Support& support,
                                  const uint64_t* candidate_mask,
                                  uint64_t* out_related, size_t block_lo,
                                  size_t block_hi);

StripeResult MatchStripeScalar(const TraceKernel& kernel,
                               const TraceKernel::Support& support,
                               const uint64_t* candidate_mask,
                               uint64_t* out_related, size_t block_lo,
                               size_t block_hi);
/// Compiled from per-ISA translation units; on architectures where the
/// tier does not exist they forward to MatchStripeScalar (the dispatch
/// layer never selects an unavailable tier, this is belt-and-braces).
StripeResult MatchStripeAvx2(const TraceKernel& kernel,
                             const TraceKernel::Support& support,
                             const uint64_t* candidate_mask,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi);
StripeResult MatchStripeAvx512(const TraceKernel& kernel,
                               const TraceKernel::Support& support,
                               const uint64_t* candidate_mask,
                               uint64_t* out_related, size_t block_lo,
                               size_t block_hi);
StripeResult MatchStripeNeon(const TraceKernel& kernel,
                             const TraceKernel::Support& support,
                             const uint64_t* candidate_mask,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi);

}  // namespace kernel_detail

}  // namespace ctfl

#endif  // CTFL_KERNEL_TRACE_KERNEL_H_
