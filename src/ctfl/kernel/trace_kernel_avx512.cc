// AVX-512F stripe unit: the 64 int32 lane sums of a block live in four
// zmm registers of 16 lanes, with 16-bit slices of the activation word
// used directly as add and compare masks. Compiled with -mavx512f on
// x86-64 (see src/CMakeLists.txt); selected at runtime only when cpuid
// reports AVX-512F (util/cpu_features.h).

#include "ctfl/kernel/trace_kernel_stripe.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ctfl {
namespace kernel_detail {
namespace {

inline __mmask16 Slice(uint64_t word, int g) {
  return static_cast<__mmask16>(word >> (16 * g));
}

inline uint64_t Join(__mmask16 g0, __mmask16 g1, __mmask16 g2,
                     __mmask16 g3) {
  return uint64_t{g0} | uint64_t{g1} << 16 | uint64_t{g2} << 32 |
         uint64_t{g3} << 48;
}

struct Avx512Ops {
  struct Lanes {
    __m512i g0, g1, g2, g3;
  };

  static void Add(Lanes& q, uint64_t word, int32_t v) {
    const __m512i vv = _mm512_set1_epi32(v);
    q.g0 = _mm512_mask_add_epi32(q.g0, Slice(word, 0), q.g0, vv);
    q.g1 = _mm512_mask_add_epi32(q.g1, Slice(word, 1), q.g1, vv);
    q.g2 = _mm512_mask_add_epi32(q.g2, Slice(word, 2), q.g2, vv);
    q.g3 = _mm512_mask_add_epi32(q.g3, Slice(word, 3), q.g3, vv);
  }

  static uint64_t GeMask(const Lanes& q, int32_t bound, uint64_t scan) {
    const __m512i bv = _mm512_set1_epi32(bound);
    return Join(_mm512_mask_cmpge_epi32_mask(Slice(scan, 0), q.g0, bv),
                _mm512_mask_cmpge_epi32_mask(Slice(scan, 1), q.g1, bv),
                _mm512_mask_cmpge_epi32_mask(Slice(scan, 2), q.g2, bv),
                _mm512_mask_cmpge_epi32_mask(Slice(scan, 3), q.g3, bv));
  }

  static uint64_t LtMask(const Lanes& q, int32_t bound, uint64_t scan) {
    const __m512i bv = _mm512_set1_epi32(bound);
    return Join(_mm512_mask_cmplt_epi32_mask(Slice(scan, 0), q.g0, bv),
                _mm512_mask_cmplt_epi32_mask(Slice(scan, 1), q.g1, bv),
                _mm512_mask_cmplt_epi32_mask(Slice(scan, 2), q.g2, bv),
                _mm512_mask_cmplt_epi32_mask(Slice(scan, 3), q.g3, bv));
  }
};

}  // namespace

StripeResult MatchStripeAvx512(const TraceKernel& kernel,
                               const TraceKernel::Support& support,
                               uint64_t* out_related, size_t block_lo,
                               size_t block_hi) {
  return MatchStripeImpl<Avx512Ops>(kernel, support, out_related, block_lo,
                                    block_hi);
}

}  // namespace kernel_detail
}  // namespace ctfl

#else  // !x86: tier never selected; keep the symbol defined.

namespace ctfl {
namespace kernel_detail {

StripeResult MatchStripeAvx512(const TraceKernel& kernel,
                               const TraceKernel::Support& support,
                               uint64_t* out_related, size_t block_lo,
                               size_t block_hi) {
  return MatchStripePortable(kernel, support, out_related, block_lo,
                             block_hi);
}

}  // namespace kernel_detail
}  // namespace ctfl

#endif
