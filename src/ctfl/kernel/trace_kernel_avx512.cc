// AVX-512F stripe unit: four groups of 16 int32 lanes per 64-record block,
// with 16-bit slices of the activation word used directly as add and
// compare masks. Compiled with -mavx512f on x86-64 (see
// src/CMakeLists.txt); selected at runtime only when cpuid reports
// AVX-512F (util/cpu_features.h).

#include "ctfl/kernel/trace_kernel_stripe.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ctfl {
namespace kernel_detail {
namespace {

struct Avx512Ops {
  static void Add(int32_t* q, uint64_t word, int32_t v) {
    const __m512i vv = _mm512_set1_epi32(v);
    for (int g = 0; g < 4; ++g) {
      const __mmask16 k = static_cast<__mmask16>(word >> (16 * g));
      int32_t* p = q + 16 * g;
      const __m512i cur = _mm512_load_si512(p);
      _mm512_store_si512(p, _mm512_mask_add_epi32(cur, k, cur, vv));
    }
  }

  static uint64_t GeMask(const int32_t* q, int32_t bound, uint64_t scan) {
    const __m512i bv = _mm512_set1_epi32(bound);
    uint64_t mask = 0;
    for (int g = 0; g < 4; ++g) {
      const __mmask16 k = static_cast<__mmask16>(scan >> (16 * g));
      const __mmask16 ge =
          _mm512_mask_cmpge_epi32_mask(k, _mm512_load_si512(q + 16 * g), bv);
      mask |= static_cast<uint64_t>(ge) << (16 * g);
    }
    return mask;
  }

  static uint64_t LtMask(const int32_t* q, int32_t bound, uint64_t scan) {
    const __m512i bv = _mm512_set1_epi32(bound);
    uint64_t mask = 0;
    for (int g = 0; g < 4; ++g) {
      const __mmask16 k = static_cast<__mmask16>(scan >> (16 * g));
      const __mmask16 lt =
          _mm512_mask_cmplt_epi32_mask(k, _mm512_load_si512(q + 16 * g), bv);
      mask |= static_cast<uint64_t>(lt) << (16 * g);
    }
    return mask;
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
