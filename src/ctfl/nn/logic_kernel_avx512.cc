// AVX-512F logic-kernel unit: a chunk is one 8-lane vector, the forward
// interleaves four rows, the factors and the backward's sums transpose in
// registers, Adam takes the corrected quotient, and the vote adds under a
// record mask. Compiled with -mavx512f on
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
  /// Pairs, then 128-bit lanes of pairs, then of quads; the zero-masked
  /// forms with a full mask, as in Sqrt and Max.
  static void Transpose(Chunk* c) {
    __m512d t[8];
    for (int j = 0; j < 8; j += 2) {
      t[j] = _mm512_maskz_unpacklo_pd(0xff, c[j], c[j + 1]);
      t[j + 1] = _mm512_maskz_unpackhi_pd(0xff, c[j], c[j + 1]);
    }
    // u[0..3]: rows 0-3 of columns {0, 4}, {2, 6}, {1, 5}, {3, 7}; u[4..7]
    // the same of rows 4-7.
    __m512d u[8];
    for (int h = 0; h < 8; h += 4) {
      u[h] = _mm512_maskz_shuffle_f64x2(0xff, t[h], t[h + 2], 0x88);
      u[h + 1] = _mm512_maskz_shuffle_f64x2(0xff, t[h], t[h + 2], 0xdd);
      u[h + 2] = _mm512_maskz_shuffle_f64x2(0xff, t[h + 1], t[h + 3], 0x88);
      u[h + 3] = _mm512_maskz_shuffle_f64x2(0xff, t[h + 1], t[h + 3], 0xdd);
    }
    c[0] = _mm512_maskz_shuffle_f64x2(0xff, u[0], u[4], 0x88);
    c[4] = _mm512_maskz_shuffle_f64x2(0xff, u[0], u[4], 0xdd);
    c[2] = _mm512_maskz_shuffle_f64x2(0xff, u[1], u[5], 0x88);
    c[6] = _mm512_maskz_shuffle_f64x2(0xff, u[1], u[5], 0xdd);
    c[1] = _mm512_maskz_shuffle_f64x2(0xff, u[2], u[6], 0x88);
    c[5] = _mm512_maskz_shuffle_f64x2(0xff, u[2], u[6], 0xdd);
    c[3] = _mm512_maskz_shuffle_f64x2(0xff, u[3], u[7], 0x88);
    c[7] = _mm512_maskz_shuffle_f64x2(0xff, u[3], u[7], 0xdd);
  }
  using Mask = __mmask8;
  static Mask LaneMask(unsigned bits) { return static_cast<__mmask8>(bits); }
  /// Lanes whose bit is clear keep acc.
  static Chunk MaskedAdd(Chunk acc, Mask mask, Chunk w) {
    return _mm512_mask_add_pd(acc, mask, acc, w);
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
