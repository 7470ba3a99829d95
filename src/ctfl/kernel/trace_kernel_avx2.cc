// AVX2 stripe unit: the 64 int32 lane sums of a block live in eight ymm
// registers of 8 lanes, each group's add mask shifted out of the
// activation word into the lanes' sign bits.
// Compiled with -mavx2 on x86-64 (see src/CMakeLists.txt); selected at
// runtime only when cpuid reports AVX2 (util/cpu_features.h).

#include "ctfl/kernel/trace_kernel_stripe.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ctfl {
namespace kernel_detail {
namespace {

// Left-shift counts that move bit 8 * j + i of a 32-bit word (j = group
// within the word, i = lane) into lane i's sign bit.
alignas(32) constexpr int32_t kToSign[4][8] = {
    {31, 30, 29, 28, 27, 26, 25, 24},
    {23, 22, 21, 20, 19, 18, 17, 16},
    {15, 14, 13, 12, 11, 10, 9, 8},
    {7, 6, 5, 4, 3, 2, 1, 0}};

/// acc + v on the lanes whose bit of `bits` the shift moves to the sign.
inline __m256i AddHits(__m256i acc, __m256i bits, int j, __m256i vv) {
  const __m256i shift =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kToSign[j]));
  const __m256i hit = _mm256_srai_epi32(_mm256_sllv_epi32(bits, shift), 31);
  return _mm256_add_epi32(acc, _mm256_and_si256(hit, vv));
}

/// One group's lanes as a byte: bit i set iff lane i's sign bit is.
inline uint64_t MoveMask(__m256i v) {
  return static_cast<uint64_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(v)));
}

struct Avx2Ops {
  struct Lanes {
    __m256i g[8];
  };

  static void Add(Lanes& q, uint64_t word, int32_t v) {
    const __m256i vv = _mm256_set1_epi32(v);
    const __m256i lo = _mm256_set1_epi32(static_cast<int>(word));
    const __m256i hi = _mm256_set1_epi32(static_cast<int>(word >> 32));
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      q.g[j] = AddHits(q.g[j], lo, j, vv);
      q.g[4 + j] = AddHits(q.g[4 + j], hi, j, vv);
    }
  }

  // Bounds lie in [0, 2^30], so bound - 1 cannot wrap.
  static uint64_t GeMask(const Lanes& q, int32_t bound, uint64_t scan) {
    const __m256i below = _mm256_set1_epi32(bound - 1);
    uint64_t mask = 0;
#pragma GCC unroll 8
    for (int g = 0; g < 8; ++g) {
      mask |= MoveMask(_mm256_cmpgt_epi32(q.g[g], below)) << (8 * g);
    }
    return mask & scan;
  }

  static uint64_t LtMask(const Lanes& q, int32_t bound, uint64_t scan) {
    const __m256i bv = _mm256_set1_epi32(bound);
    uint64_t mask = 0;
#pragma GCC unroll 8
    for (int g = 0; g < 8; ++g) {
      mask |= MoveMask(_mm256_cmpgt_epi32(bv, q.g[g])) << (8 * g);
    }
    return mask & scan;
  }
};

}  // namespace

StripeResult MatchStripeAvx2(const TraceKernel& kernel,
                             const TraceKernel::Support& support,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi) {
  return MatchStripeImpl<Avx2Ops>(kernel, support, out_related, block_lo,
                                  block_hi);
}

}  // namespace kernel_detail
}  // namespace ctfl

#else  // !x86: tier never selected; keep the symbol defined.

namespace ctfl {
namespace kernel_detail {

StripeResult MatchStripeAvx2(const TraceKernel& kernel,
                             const TraceKernel::Support& support,
                             uint64_t* out_related, size_t block_lo,
                             size_t block_hi) {
  return MatchStripePortable(kernel, support, out_related, block_lo,
                             block_hi);
}

}  // namespace kernel_detail
}  // namespace ctfl

#endif
