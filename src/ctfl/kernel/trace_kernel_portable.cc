// Portable stripe unit: the scalar and NEON tiers, and the body the
// AVX units fall back to where their ISA is not compiled. Built with the
// target's baseline flags.
//
// The lane sums live in a 64-entry array, and every primitive walks only
// the lanes it is asked about (ctz iteration over the word or scan mask):
// an add touches the undecided lanes its rule hits, and a checkpoint
// tests the block's undecided lanes, which past the first checkpoints are
// few.

#include "ctfl/kernel/trace_kernel_stripe.h"

namespace ctfl {
namespace kernel_detail {
namespace {

struct PortableOps {
  struct Lanes {
    int32_t v[64];
  };

  static void Add(Lanes& q, uint64_t word, int32_t v) {
    while (word != 0) {
      q.v[std::countr_zero(word)] += v;
      word &= word - 1;
    }
  }
  static uint64_t GeMask(const Lanes& q, int32_t bound, uint64_t scan) {
    uint64_t mask = 0;
    while (scan != 0) {
      const int lane = std::countr_zero(scan);
      scan &= scan - 1;
      mask |= static_cast<uint64_t>(q.v[lane] >= bound) << lane;
    }
    return mask;
  }
  static uint64_t LtMask(const Lanes& q, int32_t bound, uint64_t scan) {
    uint64_t mask = 0;
    while (scan != 0) {
      const int lane = std::countr_zero(scan);
      scan &= scan - 1;
      mask |= static_cast<uint64_t>(q.v[lane] < bound) << lane;
    }
    return mask;
  }
};

}  // namespace

StripeResult MatchStripePortable(const TraceKernel& kernel,
                                 const TraceKernel::Support& support,
                                 uint64_t* out_related, size_t block_lo,
                                 size_t block_hi) {
  return MatchStripeImpl<PortableOps>(kernel, support, out_related,
                                      block_lo, block_hi);
}

}  // namespace kernel_detail
}  // namespace ctfl
