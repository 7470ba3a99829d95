// Generic logic-kernel unit: the baseline tier (scalar, and NEON, whose
// compiler lowers the two-lane vectors itself) and the reference the SIMD
// units must agree with bitwise. Built with the target's baseline flags.

#include <cstdint>
#include <cstring>

#include "ctfl/nn/logic_kernel_body.h"

namespace ctfl {
namespace logic_kernel {
namespace {

/// Two adjacent lanes of a chunk, as a generic vector: each lane
/// operation is the scalar IEEE operation (ctfl_nn builds with
/// -ffp-contract=off, so nothing fuses), and the compiler lowers it to the
/// target's vectors (SSE2 on baseline x86-64, NEON on aarch64) or to
/// scalars.
typedef double Lanes __attribute__((vector_size(16)));

/// The same two lanes as bits: a comparison's result, or a lane mask.
typedef uint64_t LaneBits __attribute__((vector_size(16)));

inline Lanes LoadLanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// The lane masks of the four values of two bits: one load per pair
/// instead of building it from the bits.
constexpr LaneBits kPairMasks[4] = {
    {0, 0}, {~uint64_t{0}, 0}, {0, ~uint64_t{0}}, {~uint64_t{0}, ~uint64_t{0}}};

/// `w` in the lanes whose mask is all ones, +0.0 in the others.
inline Lanes SelectLanes(LaneBits mask, Lanes w) {
  return reinterpret_cast<Lanes>(reinterpret_cast<LaneBits>(w) & mask);
}

struct GenericOps {
  /// A node chunk as four named pairs, which the compiler keeps in
  /// registers.
  struct Chunk {
    Lanes l0, l1, l2, l3;
  };
  static constexpr int kRows = 1;
  static constexpr bool kReciprocal = false;

  static Chunk Load(const double* p) {
    return {LoadLanes(p), LoadLanes(p + 2), LoadLanes(p + 4),
            LoadLanes(p + 6)};
  }
  static void Store(double* p, const Chunk& c) {
    std::memcpy(p, &c.l0, sizeof(Lanes));
    std::memcpy(p + 2, &c.l1, sizeof(Lanes));
    std::memcpy(p + 4, &c.l2, sizeof(Lanes));
    std::memcpy(p + 6, &c.l3, sizeof(Lanes));
  }
  static Chunk Set1(double v) {
    const Lanes l = {v, v};
    return {l, l, l, l};
  }
  static Chunk Mul(const Chunk& a, const Chunk& b) {
    return {a.l0 * b.l0, a.l1 * b.l1, a.l2 * b.l2, a.l3 * b.l3};
  }
  static Chunk Add(const Chunk& a, const Chunk& b) {
    return {a.l0 + b.l0, a.l1 + b.l1, a.l2 + b.l2, a.l3 + b.l3};
  }
  static Chunk Sub(const Chunk& a, const Chunk& b) {
    return {a.l0 - b.l0, a.l1 - b.l1, a.l2 - b.l2, a.l3 - b.l3};
  }
  static Chunk Div(const Chunk& a, const Chunk& b) {
    return {a.l0 / b.l0, a.l1 / b.l1, a.l2 / b.l2, a.l3 / b.l3};
  }
  static Lanes MaxLanes(Lanes a, Lanes b) {
    const LaneBits m = reinterpret_cast<LaneBits>(a > b);
    return reinterpret_cast<Lanes>((reinterpret_cast<LaneBits>(a) & m) |
                                   (reinterpret_cast<LaneBits>(b) & ~m));
  }
  static Chunk Max(const Chunk& a, const Chunk& b) {
    return {MaxLanes(a.l0, b.l0), MaxLanes(a.l1, b.l1), MaxLanes(a.l2, b.l2),
            MaxLanes(a.l3, b.l3)};
  }
  /// Bit k set where lane k of the four pairs' comparisons holds.
  template <typename Truth>
  static unsigned Bits(Truth m0, Truth m1, Truth m2, Truth m3) {
    const Truth m[4] = {m0, m1, m2, m3};
    unsigned bits = 0;
    for (int p = 0; p < 4; ++p) {
      bits |= static_cast<unsigned>((m[p][0] & 1) | (m[p][1] & 2)) << 2 * p;
    }
    return bits;
  }
  static unsigned Less(const Chunk& a, const Chunk& b) {
    return Bits(a.l0 < b.l0, a.l1 < b.l1, a.l2 < b.l2, a.l3 < b.l3);
  }
  static unsigned LessEqual(const Chunk& a, const Chunk& b) {
    return Bits(a.l0 <= b.l0, a.l1 <= b.l1, a.l2 <= b.l2, a.l3 <= b.l3);
  }
  /// 2 x 2 blocks of pairs: pair a of column 2p and 2p + 1 takes the
  /// first, respectively second, lanes of pair p of rows 2a and 2a + 1.
  static void Transpose(Chunk* c) {
    Lanes in[8][4];
    for (int j = 0; j < 8; ++j) {
      in[j][0] = c[j].l0;
      in[j][1] = c[j].l1;
      in[j][2] = c[j].l2;
      in[j][3] = c[j].l3;
    }
    Lanes out[8][4];
    for (int a = 0; a < 4; ++a) {
      for (int p = 0; p < 4; ++p) {
        out[2 * p][a] =
            __builtin_shufflevector(in[2 * a][p], in[2 * a + 1][p], 0, 2);
        out[2 * p + 1][a] =
            __builtin_shufflevector(in[2 * a][p], in[2 * a + 1][p], 1, 3);
      }
    }
    for (int k = 0; k < 8; ++k) {
      c[k] = {out[k][0], out[k][1], out[k][2], out[k][3]};
    }
  }
  /// The lanes' masks as four pairs of all-ones or all-zero lanes.
  struct Mask {
    LaneBits m0, m1, m2, m3;
  };
  static Mask LaneMask(unsigned bits) {
    return {kPairMasks[bits & 3], kPairMasks[(bits >> 2) & 3],
            kPairMasks[(bits >> 4) & 3], kPairMasks[(bits >> 6) & 3]};
  }
  static Chunk Select(unsigned bits, const Chunk& v) {
    const Mask mask = LaneMask(bits);
    return {SelectLanes(mask.m0, v.l0), SelectLanes(mask.m1, v.l1),
            SelectLanes(mask.m2, v.l2), SelectLanes(mask.m3, v.l3)};
  }
  /// Tests the whole chunk first: most chunks hold no active weight.
  static unsigned AboveHalf(const double* p) {
    const Lanes half = {0.5, 0.5};
    const LaneBits any = reinterpret_cast<LaneBits>(
        (LoadLanes(p) > half) | (LoadLanes(p + 2) > half) |
        (LoadLanes(p + 4) > half) | (LoadLanes(p + 6) > half));
    if ((any[0] | any[1]) == 0) return 0;
    unsigned bits = 0;
    for (int k = 0; k < kChunk; ++k) {
      bits |= static_cast<unsigned>(p[k] > 0.5) << k;
    }
    return bits;
  }
  /// Lanes whose bit is clear add +0.0.
  static Chunk MaskedAdd(const Chunk& acc, const Mask& mask, const Chunk& w) {
    return {acc.l0 + SelectLanes(mask.m0, w.l0),
            acc.l1 + SelectLanes(mask.m1, w.l1),
            acc.l2 + SelectLanes(mask.m2, w.l2),
            acc.l3 + SelectLanes(mask.m3, w.l3)};
  }
};

}  // namespace

const Units& GenericUnits() {
  static const Units units = MakeUnits<GenericOps>();
  return units;
}

const Units& UnitsFor(TraceIsa isa) {
  switch (isa) {
    case TraceIsa::kAvx512:
      return Avx512Units();
    case TraceIsa::kAvx2:
      return Avx2Units();
    case TraceIsa::kNeon:
    case TraceIsa::kScalar:
      break;
  }
  return GenericUnits();
}

}  // namespace logic_kernel
}  // namespace ctfl
