// AVX2+FMA logic-kernel unit: a chunk is two 4-lane vectors, the forward
// interleaves two rows, the backward transposes its sums as four 4 x 4
// blocks, Adam takes the corrected quotient, and the vote adds a weight
// masked by its record bits. Compiled with -mavx2 -mfma on x86-64 (see
// src/CMakeLists.txt); selected only when cpuid reports both
// (util/cpu_features.h). FMA appears only as explicit intrinsics, in
// Quotient and in MaskedAdd (whose product is exact): ctfl_nn builds with
// -ffp-contract=off.

#include "ctfl/nn/logic_kernel_body.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ctfl {
namespace logic_kernel {
namespace {

struct Avx2Ops {
  struct Chunk {
    __m256d lo;
    __m256d hi;
  };
  static constexpr int kRows = 2;
  static constexpr bool kReciprocal = true;

  static Chunk Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  static void Store(double* p, Chunk c) {
    _mm256_storeu_pd(p, c.lo);
    _mm256_storeu_pd(p + 4, c.hi);
  }
  static Chunk Set1(double v) {
    const __m256d x = _mm256_set1_pd(v);
    return {x, x};
  }
  static Chunk Mul(Chunk a, Chunk b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static Chunk Add(Chunk a, Chunk b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static Chunk Sub(Chunk a, Chunk b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static Chunk Div(Chunk a, Chunk b) {
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
  }
  static Chunk Sqrt(Chunk a) {
    return {_mm256_sqrt_pd(a.lo), _mm256_sqrt_pd(a.hi)};
  }
  static Chunk Max(Chunk a, Chunk b) {
    return {_mm256_max_pd(a.lo, b.lo), _mm256_max_pd(a.hi, b.hi)};
  }
  template <int kPredicate>
  static unsigned Compare(Chunk a, Chunk b) {
    const int lo = _mm256_movemask_pd(_mm256_cmp_pd(a.lo, b.lo, kPredicate));
    const int hi = _mm256_movemask_pd(_mm256_cmp_pd(a.hi, b.hi, kPredicate));
    return static_cast<unsigned>(lo | hi << 4);
  }
  static unsigned Less(Chunk a, Chunk b) { return Compare<_CMP_LT_OQ>(a, b); }
  static unsigned LessEqual(Chunk a, Chunk b) {
    return Compare<_CMP_LE_OQ>(a, b);
  }

  /// a / b, with y = RN(1 / b): q0 = a y, r = a - q0 b (exact), q0 + r y.
  static __m256d Quotient4(__m256d a, __m256d b, __m256d y) {
    const __m256d q0 = _mm256_mul_pd(a, y);
    const __m256d r = _mm256_fnmadd_pd(q0, b, a);
    return _mm256_fmadd_pd(r, y, q0);
  }
  static Chunk Quotient(Chunk a, Chunk b, Chunk y) {
    return {Quotient4(a.lo, b.lo, y.lo), Quotient4(a.hi, b.hi, y.hi)};
  }
  static __m256d Guarded4(__m256d a, __m256d b, __m256d y) {
    const __m256d mag = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
    const __m256d ok = _mm256_and_pd(
        _mm256_cmp_pd(mag, _mm256_set1_pd(0x1p-900), _CMP_GE_OQ),
        _mm256_cmp_pd(mag, _mm256_set1_pd(0x1p1000), _CMP_LE_OQ));
    const __m256d q = Quotient4(a, b, y);
    if (_mm256_movemask_pd(ok) == 0xf) return q;
    return _mm256_blendv_pd(_mm256_div_pd(a, b), q, ok);
  }
  static Chunk GuardedQuotient(Chunk a, Chunk b, Chunk y) {
    return {Guarded4(a.lo, b.lo, y.lo), Guarded4(a.hi, b.hi, y.hi)};
  }
  static unsigned AboveHalf(const double* p) {
    const __m256d half = _mm256_set1_pd(0.5);
    const int lo = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p), half, _CMP_GT_OQ));
    const int hi = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(p + 4), half, _CMP_GT_OQ));
    return static_cast<unsigned>(lo | hi << 4);
  }
  /// Transposes the 4 x 4 doubles of r[0..3] in place.
  static void Transpose4(__m256d* r) {
    const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
    const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
    const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
    const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
    r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
  /// The four 4 x 4 blocks transposed, the two off the diagonal swapped.
  static void Transpose(Chunk* c) {
    __m256d lo[2][4];
    __m256d hi[2][4];
    for (int j = 0; j < 8; ++j) {
      lo[j / 4][j % 4] = c[j].lo;
      hi[j / 4][j % 4] = c[j].hi;
    }
    for (int h = 0; h < 2; ++h) {
      Transpose4(lo[h]);
      Transpose4(hi[h]);
    }
    for (int k = 0; k < 4; ++k) {
      c[k] = {lo[0][k], lo[1][k]};
      c[k + 4] = {hi[0][k], hi[1][k]};
    }
  }
  /// All ones in the lanes whose bit of the low four `bits` is set.
  static __m256d NibbleMask(unsigned bits) {
    const __m256i lane = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(bits), lane), lane));
  }
  static Chunk Select(unsigned bits, Chunk v) {
    return {_mm256_and_pd(NibbleMask(bits), v.lo),
            _mm256_and_pd(NibbleMask(bits >> 4), v.hi)};
  }
  /// The lanes' masks as 1.0 where the bit is set and 0.0 elsewhere.
  using Mask = Chunk;
  static Mask LaneMask(unsigned bits) { return Select(bits, Set1(1.0)); }
  /// One rounding of acc + mask * w: acc + w where the mask is 1.0, and
  /// acc + (±0.0) where it is 0.0, for a finite w (both callers' addends
  /// are): one instruction per four lanes instead of an and and an add.
  static Chunk MaskedAdd(Chunk acc, const Mask& mask, Chunk w) {
    return {_mm256_fmadd_pd(mask.lo, w.lo, acc.lo),
            _mm256_fmadd_pd(mask.hi, w.hi, acc.hi)};
  }

};

}  // namespace

const Units& Avx2Units() {
  static const Units units = MakeUnits<Avx2Ops>();
  return units;
}

}  // namespace logic_kernel
}  // namespace ctfl

#else  // !x86: tier never selected; keep the symbol defined.

namespace ctfl {
namespace logic_kernel {

const Units& Avx2Units() { return GenericUnits(); }

}  // namespace logic_kernel
}  // namespace ctfl

#endif
