#ifndef CTFL_KERNEL_TRACE_KERNEL_STRIPE_H_
#define CTFL_KERNEL_TRACE_KERNEL_STRIPE_H_

// Shared stripe-sweep template behind the kernel's translation units
// (trace_kernel_{portable,avx2,avx512}.cc). Each unit instantiates
// MatchStripeImpl with an Ops policy supplying a lane accumulator and
// three integer primitives on it; everything else — pruning schedule,
// checkpoints, exact fallback, stats — is this one body, so every tier
// runs the *same* decision procedure and differs only in how the 64 int32
// lanes are held and touched.
//
// Requirements on an Ops policy (DESIGN.md §10.4):
//
//  - Lanes: the 64 int32 lane sums of one block, all 0 when
//    value-initialized. The vector units hold them in registers for a
//    whole block.
//  - Add(q, word, v): q[lane] += v for every set lane of `word`; the
//    other lanes are left untouched.
//  - GeMask(q, bound, scan): the lanes of `scan` with q[lane] >= bound.
//  - LtMask(q, bound, scan): the lanes of `scan` with q[lane] < bound.
//
// Integer adds and compares are exact and order-free, so any lane grouping
// and any tile-aligned sharding of the block range makes identical
// accept/kill/fallback decisions and counts identical stats.

#include <bit>
#include <cstdint>

#include "ctfl/kernel/trace_kernel.h"

namespace ctfl {
namespace kernel_detail {

/// The stripe sweep over [block_lo, block_hi). Each block adds every
/// sorted rule's q to the lanes it hits that are still undecided, with no
/// test in between, and tests the undecided lanes only at the support's
/// checkpoints (DESIGN.md §10.2): accept when the sum reaches accept_q
/// (once some lane can, c >= accept_from), kill when it is below kill_q[c]
/// (once kill_q[c] > 0). Both decisions are monotone in c, and the
/// schedule ends with m - 1 and m, so the related words, the fallback
/// lanes and blocks_pruned are those of a test after every rule. Lanes
/// still undecided at m sit within the bounds' resolution of the
/// threshold and take ExactRelated.
template <typename Ops>
StripeResult MatchStripeImpl(const TraceKernel& kernel,
                             const TraceKernel::Support& s,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi) {
  StripeResult res;
  const size_t m = s.sorted_rules.size();
  const int* rules = s.sorted_rules.data();
  const int32_t* sorted_q = s.sorted_q.data();
  const int32_t accept_q = s.accept_q;
  const int32_t* kill_q = s.kill_q.data();
  // Every lane sum starts at 0, so the c = 0 checkpoint decides all lanes
  // of a block alike.
  const bool accept_all = accept_q <= 0;
  const bool reject_all = kill_q[0] > 0;

  for (size_t b = block_lo; b < block_hi; ++b) {
    const uint64_t valid = kernel.full_mask_word(b);
    res.stats.records_scanned +=
        static_cast<int64_t>(std::popcount(valid));
    uint64_t related = 0;
    uint64_t undecided = 0;
    bool pruned = m > 0;
    if (accept_all) {
      related = valid;
    } else if (!reject_all) {
      undecided = valid;
      pruned = false;
      typename Ops::Lanes q{};
      size_t ri = 0;
      for (const size_t c : s.checkpoints) {
        for (; ri < c; ++ri) {
          Ops::Add(q, kernel.rule_word(rules[ri], b) & undecided,
                   sorted_q[ri]);
        }
        if (c >= s.accept_from) {
          const uint64_t accept = Ops::GeMask(q, accept_q, undecided);
          related |= accept;
          undecided &= ~accept;
        }
        if (kill_q[c] > 0) {
          undecided &= ~Ops::LtMask(q, kill_q[c], undecided);
        }
        if (undecided == 0) {
          pruned = c < m;
          break;
        }
      }
    }
    if (pruned) ++res.stats.blocks_pruned;

    while (undecided != 0) {
      const int lane = std::countr_zero(undecided);
      undecided &= undecided - 1;
      ++res.stats.exact_fallbacks;
      if (kernel.ExactRelated(s, b * 64 + static_cast<size_t>(lane))) {
        related |= 1ULL << lane;
      }
    }
    out_related[b] = related;
    res.related += static_cast<size_t>(std::popcount(related));
  }
  return res;
}

}  // namespace kernel_detail
}  // namespace ctfl

#endif  // CTFL_KERNEL_TRACE_KERNEL_STRIPE_H_
