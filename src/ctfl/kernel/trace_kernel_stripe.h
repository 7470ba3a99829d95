#ifndef CTFL_KERNEL_TRACE_KERNEL_STRIPE_H_
#define CTFL_KERNEL_TRACE_KERNEL_STRIPE_H_

// Shared stripe-sweep template behind the kernel's translation units
// (trace_kernel_{portable,avx2,avx512}.cc). Each unit instantiates
// MatchStripeImpl with an Ops policy supplying three integer lane
// primitives; everything else — pruning schedule, checkpoint gating,
// exact fallback, stats — is this one body, so every tier runs the *same*
// decision procedure and differs only in how the 64 int32 lanes are
// touched.
//
// Requirements on an Ops policy (DESIGN.md §10):
//
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
#include <cstring>

#include "ctfl/kernel/trace_kernel.h"

namespace ctfl {
namespace kernel_detail {

/// The stripe sweep over [block_lo, block_hi). Checkpoints after sorted
/// rule c - 1 (c rules processed) examine only the lanes whose decision
/// can have changed: a lane's sum grows only when the rule hits it, so
/// only hit lanes can newly reach accept_q; and kill_q[c] grows by exactly
/// the rule's q, so only lanes the rule missed can newly fall below it.
/// Checks are further gated to rules after which a lane can reach
/// accept_q (c >= accept_from) and at which a lane can be killed
/// (kill_q[c] > 0). Lanes that survive every checkpoint of the support
/// sit within the bounds' resolution of the threshold and take
/// ExactRelated.
template <typename Ops>
StripeResult MatchStripeImpl(const TraceKernel& kernel,
                             const TraceKernel::Support& s,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi) {
  StripeResult res;
  const size_t m = s.sorted_rules.size();
  const int32_t accept_q = s.accept_q;
  const int32_t* kill_q = s.kill_q.data();
  // Every lane sum starts at 0, so the c = 0 checkpoint decides all lanes
  // of a block alike.
  const bool accept_all = accept_q <= 0;
  const bool reject_all = kill_q[0] > 0;

  alignas(64) int32_t q[64];
  for (size_t b = block_lo; b < block_hi; ++b) {
    const uint64_t valid = kernel.full_mask_word(b);
    res.stats.records_scanned +=
        static_cast<int64_t>(std::popcount(valid));
    uint64_t related = 0;
    uint64_t undecided = 0;
    bool early_exit = m > 0;
    if (accept_all) {
      related = valid;
    } else if (!reject_all) {
      undecided = valid;
      early_exit = false;
      std::memset(q, 0, sizeof(q));
      for (size_t ri = 0; ri < m; ++ri) {
        const uint64_t word =
            kernel.rule_word(s.sorted_rules[ri], b) & undecided;
        Ops::Add(q, word, s.sorted_q[ri]);
        const size_t c = ri + 1;
        if (word != 0 && c >= s.accept_from) {
          const uint64_t accept = Ops::GeMask(q, accept_q, word);
          related |= accept;
          undecided &= ~accept;
        }
        const uint64_t missed = undecided & ~word;
        if (missed != 0 && kill_q[c] > 0) {
          undecided &= ~Ops::LtMask(q, kill_q[c], missed);
        }
        if (undecided == 0) {
          early_exit = c < m;
          break;
        }
      }
    }
    if (early_exit) ++res.stats.blocks_pruned;

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
