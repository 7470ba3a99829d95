// Portable stripe unit: the scalar and NEON tiers, and the body the
// AVX units fall back to where their ISA is not compiled. Built with the
// target's baseline flags.
//
// Every primitive walks only the lanes it is asked about (ctz iteration
// over the word or scan mask): past the first few rules most lanes of a
// block are decided, and the stripe body hands each checkpoint just the
// lanes whose decision can have changed.

#include "ctfl/kernel/trace_kernel_stripe.h"

namespace ctfl {
namespace kernel_detail {
namespace {

struct PortableOps {
  static void Add(int32_t* q, uint64_t word, int32_t v) {
    while (word != 0) {
      q[std::countr_zero(word)] += v;
      word &= word - 1;
    }
  }
  static uint64_t GeMask(const int32_t* q, int32_t bound, uint64_t scan) {
    uint64_t mask = 0;
    while (scan != 0) {
      const int lane = std::countr_zero(scan);
      scan &= scan - 1;
      mask |= static_cast<uint64_t>(q[lane] >= bound) << lane;
    }
    return mask;
  }
  static uint64_t LtMask(const int32_t* q, int32_t bound, uint64_t scan) {
    uint64_t mask = 0;
    while (scan != 0) {
      const int lane = std::countr_zero(scan);
      scan &= scan - 1;
      mask |= static_cast<uint64_t>(q[lane] < bound) << lane;
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
