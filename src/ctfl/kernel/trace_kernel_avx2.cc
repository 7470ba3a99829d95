// AVX2 stripe unit: eight groups of 8 int32 lanes per 64-record block,
// each group's add mask shifted out of the activation word into the
// lanes' sign bits.
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

inline __m256i LoadLanes(const int32_t* q) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(q));
}

/// One group's lanes as a byte: bit i set iff lane i's sign bit is.
inline uint64_t MoveMask(__m256i v) {
  return static_cast<uint64_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(v)));
}

struct Avx2Ops {
  static void Add(int32_t* q, uint64_t word, int32_t v) {
    const __m256i vv = _mm256_set1_epi32(v);
    for (int half = 0; half < 2; ++half) {
      const __m256i bits =
          _mm256_set1_epi32(static_cast<int>(word >> (32 * half)));
      for (int j = 0; j < 4; ++j) {
        const __m256i hit = _mm256_srai_epi32(
            _mm256_sllv_epi32(bits, _mm256_load_si256(
                                        reinterpret_cast<const __m256i*>(
                                            kToSign[j]))),
            31);
        int32_t* p = q + 32 * half + 8 * j;
        _mm256_store_si256(
            reinterpret_cast<__m256i*>(p),
            _mm256_add_epi32(LoadLanes(p), _mm256_and_si256(hit, vv)));
      }
    }
  }

  // Bounds lie in [0, 2^30], so bound - 1 cannot wrap.
  static uint64_t GeMask(const int32_t* q, int32_t bound, uint64_t scan) {
    const __m256i below = _mm256_set1_epi32(bound - 1);
    uint64_t mask = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256i ge = _mm256_cmpgt_epi32(LoadLanes(q + 8 * g), below);
      mask |= MoveMask(ge) << (8 * g);
    }
    return mask & scan;
  }

  static uint64_t LtMask(const int32_t* q, int32_t bound, uint64_t scan) {
    const __m256i bv = _mm256_set1_epi32(bound);
    uint64_t mask = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256i lt = _mm256_cmpgt_epi32(bv, LoadLanes(q + 8 * g));
      mask |= MoveMask(lt) << (8 * g);
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
