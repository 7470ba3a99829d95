// AVX-512F logic-kernel unit: a chunk is one 8-lane vector, the forward
// interleaves four rows, the backward's weight sums keep all eight node
// accumulators in registers and add under a row's input mask, Adam takes
// the corrected quotient, the row split compresses input indices under the
// batch's bits with mask stores, the table gathers a chunk's weights per
// input, and the vote adds under a record mask. Compiled with -mavx512f on
// x86-64 (see src/CMakeLists.txt); selected only when cpuid reports
// AVX-512F (util/cpu_features.h). FMA appears only as the explicit
// intrinsics of Quotient: ctfl_nn builds with -ffp-contract=off.

#include "ctfl/nn/logic_kernel_body.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ctfl {
namespace logic_kernel {
namespace {

struct Avx512Ops {
  using Chunk = __m512d;
  static constexpr int kRows = 4;
  static constexpr int kNodes = 8;
  static constexpr bool kReciprocal = true;

  static Chunk Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Chunk c) { _mm512_storeu_pd(p, c); }
  static Chunk Set1(double v) { return _mm512_set1_pd(v); }
  static Chunk Mul(Chunk a, Chunk b) { return _mm512_mul_pd(a, b); }
  static Chunk Add(Chunk a, Chunk b) { return _mm512_add_pd(a, b); }
  static Chunk Sub(Chunk a, Chunk b) { return _mm512_sub_pd(a, b); }
  static Chunk Div(Chunk a, Chunk b) { return _mm512_div_pd(a, b); }
  // The zero-masked forms with a full mask are vsqrtpd and vmaxpd; GCC 12
  // warns on the plain intrinsics' undefined pass-through operand.
  static Chunk Sqrt(Chunk a) { return _mm512_maskz_sqrt_pd(0xff, a); }
  static Chunk Max(Chunk a, Chunk b) { return _mm512_maskz_max_pd(0xff, a, b); }
  static unsigned Less(Chunk a, Chunk b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static unsigned LessEqual(Chunk a, Chunk b) {
    return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
  }
  static Chunk Select(unsigned bits, Chunk v) {
    return _mm512_maskz_mov_pd(static_cast<__mmask8>(bits), v);
  }

  /// a / b, with y = RN(1 / b): q0 = a y, r = a - q0 b (exact), q0 + r y.
  static Chunk Quotient(Chunk a, Chunk b, Chunk y) {
    const __m512d q0 = _mm512_mul_pd(a, y);
    const __m512d r = _mm512_fnmadd_pd(q0, b, a);
    return _mm512_fmadd_pd(r, y, q0);
  }
  static Chunk GuardedQuotient(Chunk a, Chunk b, Chunk y) {
    const __m512d mag = _mm512_abs_pd(a);
    const __mmask8 ok =
        _mm512_cmp_pd_mask(mag, _mm512_set1_pd(0x1p-900), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(mag, _mm512_set1_pd(0x1p1000), _CMP_LE_OQ);
    const __m512d q = Quotient(a, b, y);
    const __mmask8 divide = static_cast<__mmask8>(~ok);
    return divide == 0 ? q : _mm512_mask_div_pd(q, divide, a, b);
  }
  static unsigned AboveHalf(const double* p) {
    return _mm512_cmp_pd_mask(_mm512_loadu_pd(p), _mm512_set1_pd(0.5),
                              _CMP_GT_OQ);
  }
  using Mask = __mmask8;
  static Mask LaneMask(unsigned bits) { return static_cast<__mmask8>(bits); }
  /// Lanes whose bit is clear keep acc.
  static Chunk MaskedAdd(Chunk acc, Mask mask, Chunk w) {
    return _mm512_mask_add_pd(acc, mask, acc, w);
  }

  /// 16 inputs at a time: each list's indices compressed to its end with
  /// one mask store, under the piece's set bits (at one) and its clear
  /// bits (at zero). A 16-bit piece never straddles two words.
  static void SplitRows(const uint64_t* x, size_t x_words, int in_dim,
                        size_t lo, size_t hi, int* at_zero_base,
                        int* at_one_base, int* zeros_out) {
    const __m512i iota =
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    for (size_t r = lo; r < hi; ++r) {
      const uint64_t* xr = x + r * x_words;
      int* at_zero = at_zero_base + r * in_dim;
      int* at_one = at_one_base + r * in_dim;
      int zeros = 0;
      int ones = 0;
      for (int i = 0; i < in_dim; i += 16) {
        const int n = in_dim - i < 16 ? in_dim - i : 16;
        const unsigned valid = n == 16 ? 0xffffu : (1u << n) - 1;
        const unsigned o =
            static_cast<unsigned>(xr[i / 64] >> (i % 64)) & valid;
        const unsigned z = valid & ~o;
        const __m512i index = _mm512_add_epi32(iota, _mm512_set1_epi32(i));
        _mm512_mask_compressstoreu_epi32(at_zero + zeros,
                                         static_cast<__mmask16>(z), index);
        _mm512_mask_compressstoreu_epi32(at_one + ones,
                                         static_cast<__mmask16>(o), index);
        zeros += __builtin_popcount(z);
        ones += __builtin_popcount(o);
      }
      zeros_out[r] = zeros;
    }
  }

  /// One gather of the chunk's weights per input; lanes past `width`
  /// gather nothing and keep 0.0, whose factor max(kEps, 1 - 0) is 1.0.
  static bool BuildChunk(const double* w0, int in_dim, int width,
                         double* c) {
    const __mmask8 lanes = static_cast<__mmask8>((1u << width) - 1);
    const __m256i rows = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(in_dim));
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d eps = _mm512_set1_pd(kEps);
    const __m512d inf = _mm512_set1_pd(__builtin_inf());
    __mmask8 finite = 0xff;
    for (int i = 0; i < in_dim; ++i) {
      const __m512d w = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), lanes,
                                                 rows, w0 + i, 8);
      finite &= _mm512_cmp_pd_mask(_mm512_abs_pd(w), inf, _CMP_LT_OQ);
      // max(v, eps) is (v > eps ? v : eps), std::max(kEps, v) exactly.
      _mm512_storeu_pd(c + static_cast<size_t>(i) * kChunk,
                       _mm512_maskz_max_pd(0xff, _mm512_sub_pd(one, w), eps));
    }
    return finite == 0xff;
  }
};

}  // namespace

const Units& Avx512Units() {
  static const Units units = MakeUnits<Avx512Ops>();
  return units;
}

}  // namespace logic_kernel
}  // namespace ctfl

#else  // !x86: tier never selected; keep the symbol defined.

namespace ctfl {
namespace logic_kernel {

const Units& Avx512Units() { return GenericUnits(); }

}  // namespace logic_kernel
}  // namespace ctfl

#endif
