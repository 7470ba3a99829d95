#ifndef CTFL_NN_LOGIC_KERNEL_BODY_H_
#define CTFL_NN_LOGIC_KERNEL_BODY_H_

// Shared bodies behind the per-tier logic-kernel units
// (logic_kernel_{generic,avx2,avx512}.cc). Each unit instantiates them with
// an Ops policy; the loop structure, the lane guards and every fallback are
// this one body, so the tiers differ only in how the eight lanes of a
// chunk are touched. Everything here has internal linkage, and it calls no
// inline library function: every unit compiles its own copy with its own
// ISA flags, and none can lend the baseline code a copy built with wider
// ones.
//
// An Ops policy supplies:
//  - `Chunk`, eight doubles, with Load/Store (unaligned), Set1, Mul, Add,
//    Sub, Div and Max(a, b) (a > b ? a : b), each the IEEE operation per
//    lane;
//  - Less(a, b) and LessEqual(a, b), the mask of the lanes where the
//    ordered comparison holds (bit k for lane k; false where either is
//    NaN), and Select(bits, v), v in the lanes whose bit is set and +0.0 in
//    the others;
//  - `kRows`, the rows the forward interleaves, and `kNodes`, the node
//    accumulators the backward's weight sums keep at once (as many as the
//    tier's registers hold);
//  - `kReciprocal`; when true, also Sqrt, Quotient(a, b, y) (Markstein's
//    corrected quotient with y = 1 / b, DESIGN.md §16.3) and
//    GuardedQuotient(a, b, y) (Quotient where |a| lies in [2^-900, 2^1000],
//    division elsewhere), which only Adam takes;
//  - SplitRows and BuildChunk, with the contracts of Units;
//  - AboveHalf(p), the mask of the eight lanes with p[k] > 0.5;
//  - `Mask`, eight lanes' bits in the form the tier adds under, made by
//    LaneMask(bits), and MaskedAdd(acc, mask, w), for a finite w: acc + w
//    in the lanes whose bit is set, and acc or acc + (±0.0) in the others,
//    the same bits for every acc but -0.0, which no sum from +0.0 holds (an
//    IEEE sum is -0.0 only when both addends are).
//
// Bit-identity (DESIGN.md §16.3): every unit evaluates each result with
// the same operations in the same order as the oracle (tests/
// logic_oracle.h). The backward's weight gradient is factored: per weight,
// the sum of g * prod over the rows that list its input, from +0.0 in
// ascending row order, then one IEEE division by the weight's factor. The
// sums are masked adds with lanes = 8 inputs, one mask per row from the
// row's packed bits, so no loop's trip count depends on the batch. Adam's
// quotient is either the IEEE division or the corrected quotient on
// operands where it provably equals it.

#include <cmath>
#include <cstdint>

#include "ctfl/nn/logic_kernel.h"

namespace ctfl {
namespace logic_kernel {
namespace {

/// std::max(kEps, v), as the generic loops evaluate it.
inline double ClampFactor(double v) { return kEps < v ? v : kEps; }

/// The portable row split: one ctz loop over each word's set bits (the
/// at-one list) and one over its clear bits below in_dim (the at-zero
/// list), lowest first.
inline void SplitRowsPortable(const uint64_t* x, size_t x_words, int in_dim,
                              size_t lo, size_t hi, int* at_zero_base,
                              int* at_one_base, int* zeros_out) {
  for (size_t r = lo; r < hi; ++r) {
    const uint64_t* xr = x + r * x_words;
    int* at_zero = at_zero_base + r * in_dim;
    int* at_one = at_one_base + r * in_dim;
    int zeros = 0;
    int ones = 0;
    for (int base = 0; base < in_dim; base += 64) {
      const int n = in_dim - base;
      const uint64_t valid = n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
      const uint64_t word = xr[base / 64];
      for (uint64_t m = word & valid; m != 0; m &= m - 1) {
        at_one[ones++] = base + __builtin_ctzll(m);
      }
      for (uint64_t m = ~word & valid; m != 0; m &= m - 1) {
        at_zero[zeros++] = base + __builtin_ctzll(m);
      }
    }
    zeros_out[r] = zeros;
  }
}

/// The portable chunk build.
inline bool BuildChunkPortable(const double* w0, int in_dim, int width,
                               double* c) {
  bool finite = true;
  for (int i = 0; i < in_dim; ++i) {
    double* ci = c + static_cast<size_t>(i) * kChunk;
    for (int k = 0; k < kChunk; ++k) {
      if (k >= width) {
        ci[k] = 1.0;
        continue;
      }
      const double v = w0[static_cast<size_t>(k) * in_dim + i];
      finite &= __builtin_isfinite(v);
      ci[k] = ClampFactor(1.0 - v);
    }
  }
  return finite;
}

/// v, or kGradientNaN when v is NaN.
inline double CanonicalNaN(double v) { return v != v ? kGradientNaN : v; }

// ---- Forward ----------------------------------------------------------------

/// Writes to out[(ρ * kChunks + q) * kChunk + k] the product of row
/// r0 + ρ's listed factors of chunk q, in list order: kRows x kChunks
/// independent multiply chains. The rows walk their common prefix in
/// lockstep, then each finishes its own list.
template <typename Ops, int kRows, int kChunks>
inline void MultiplyRows(const ForwardJob& job, size_t r0, double* out) {
  using Chunk = typename Ops::Chunk;
  const int* list[kRows];
  int count[kRows];
  int common = job.in_dim;
  Chunk acc[kRows][kChunks];
#pragma GCC unroll 8
  for (int p = 0; p < kRows; ++p) {
    const size_t r = r0 + p;
    list[p] = job.lists + r * job.in_dim;
    count[p] = job.conj ? job.zeros[r] : job.in_dim - job.zeros[r];
    common = count[p] < common ? count[p] : common;
#pragma GCC unroll 2
    for (int q = 0; q < kChunks; ++q) acc[p][q] = Ops::Set1(1.0);
  }
  const size_t stride = job.chunk_stride;
  for (int j = 0; j < common; ++j) {
#pragma GCC unroll 8
    for (int p = 0; p < kRows; ++p) {
      const double* c = job.table + static_cast<size_t>(list[p][j]) * kChunk;
#pragma GCC unroll 2
      for (int q = 0; q < kChunks; ++q) {
        acc[p][q] = Ops::Mul(acc[p][q], Ops::Load(c + q * stride));
      }
    }
  }
#pragma GCC unroll 8
  for (int p = 0; p < kRows; ++p) {
    for (int j = common; j < count[p]; ++j) {
      const double* c = job.table + static_cast<size_t>(list[p][j]) * kChunk;
#pragma GCC unroll 2
      for (int q = 0; q < kChunks; ++q) {
        acc[p][q] = Ops::Mul(acc[p][q], Ops::Load(c + q * stride));
      }
    }
#pragma GCC unroll 2
    for (int q = 0; q < kChunks; ++q) {
      Ops::Store(out + (p * kChunks + q) * kChunk, acc[p][q]);
    }
  }
}

template <typename Ops, int kRows, int kChunks>
inline void ForwardRows(const ForwardJob& job, size_t r0) {
  double prod[kRows * kChunks * kChunk];
  MultiplyRows<Ops, kRows, kChunks>(job, r0, prod);
  for (int p = 0; p < kRows; ++p) {
    double* yr = job.y + (r0 + p) * job.y_stride;
    for (int q = 0; q < kChunks; ++q) {
      const double* pq = prod + (p * kChunks + q) * kChunk;
      double* out = yr + job.first[q];
      for (int k = 0; k < job.width[q]; ++k) {
        out[k] = job.conj ? pq[k] : 1.0 - pq[k];
      }
    }
  }
}

template <typename Ops, int kChunks>
inline void ForwardChunks(const ForwardJob& job) {
  constexpr int kRows = Ops::kRows;
  size_t r = 0;
  for (; r + kRows <= job.rows; r += kRows) {
    ForwardRows<Ops, kRows, kChunks>(job, r);
  }
  for (; r < job.rows; ++r) ForwardRows<Ops, 1, kChunks>(job, r);
}

/// Units::forward: each node multiplies its factors in ascending input
/// order, as the generic loop does (a skipped factor is exactly 1.0).
template <typename Ops>
void Forward(const ForwardJob& job) {
  if (job.chunks == 2) {
    ForwardChunks<Ops, 2>(job);
  } else {
    ForwardChunks<Ops, 1>(job);
  }
}

// ---- Backward ---------------------------------------------------------------

/// True when every one of the n weights at `w` is finite and none of the n
/// gradients at `g` is -0.0. Integer adds, masks and shifts only, so the
/// loop vectorizes on every tier: bit 63 of (exponent field + 2^52) is set
/// only for an all-ones exponent, and bit 63 of ~z & (z - 1) only for
/// z = 0, z being the gradient's bits against -0.0's.
inline bool SumsApply(const double* w, const double* g, size_t n) {
  constexpr uint64_t kExponent = uint64_t{0x7ff} << 52;
  constexpr uint64_t kNegativeZero = uint64_t{1} << 63;
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t wb;
    uint64_t gb;
    __builtin_memcpy(&wb, w + i, sizeof(wb));
    __builtin_memcpy(&gb, g + i, sizeof(gb));
    const uint64_t z = gb ^ kNegativeZero;
    bad |= ((wb & kExponent) + (uint64_t{1} << 52)) | (~z & (z - 1));
  }
  return bad >> 63 == 0;
}

/// Writes each row's terms g' * prod to job.terms (kChunk a row), with
/// g' = -g for a conjunction, in the lanes whose g is finite and nonzero
/// and whose product lies in (0, 1]; +0.0 in the others, which the sums
/// then add without effect. Lanes the generic loop would not skip (g != 0
/// and not prod <= 0) but the sums leave out run it for this (row, node)
/// on the row's bits, straight into the node's gradient row, so a NaN or
/// infinite g propagates as in the generic loop.
template <typename Ops>
inline void RowTerms(const BackwardJob& job) {
  using Chunk = typename Ops::Chunk;
  const Chunk zero = Ops::Set1(0.0);
  const Chunk one = Ops::Set1(1.0);
  const Chunk inf = Ops::Set1(__builtin_inf());
  const Chunk minus_inf = Ops::Set1(-__builtin_inf());
  // g * -1.0 is -g exactly.
  const Chunk sign = Ops::Set1(job.conj ? -1.0 : 1.0);
  const unsigned lanes = (1u << job.width) - 1;
  double pad[2][kChunk] = {};
  for (size_t r = 0; r < job.rows; ++r) {
    const double* dyr = job.dy + r * job.out_dim + job.first;
    const double* yr = job.y + r * job.out_dim + job.first;
    if (job.width < kChunk) {
      // A partial chunk's lanes would read past the row: padding lanes
      // hold g = 0, which neither the sums nor the generic loop take.
      for (int k = 0; k < job.width; ++k) {
        pad[0][k] = dyr[k];
        pad[1][k] = yr[k];
      }
      dyr = pad[0];
      yr = pad[1];
    }
    const Chunk g = Ops::Load(dyr);
    const Chunk y = Ops::Load(yr);
    const Chunk prod = job.conj ? y : Ops::Sub(one, y);
    // g != 0 holds for NaN, as in the generic loop.
    const unsigned nonzero =
        ~(Ops::LessEqual(g, zero) & Ops::LessEqual(zero, g)) & lanes;
    const unsigned summed = nonzero & Ops::Less(minus_inf, g) &
                            Ops::Less(g, inf) & Ops::Less(zero, prod) &
                            Ops::LessEqual(prod, one);
    Ops::Store(job.terms + r * kChunk,
               Ops::Select(summed, Ops::Mul(Ops::Mul(g, sign), prod)));
    for (unsigned m = nonzero & ~Ops::LessEqual(prod, zero) & ~summed; m != 0;
         m &= m - 1) {
      const int k = __builtin_ctz(m);
      const size_t node = static_cast<size_t>(job.first + k);
      job.node_gradient(job.conj, dyr[k], job.conj ? yr[k] : 1.0 - yr[k],
                        job.w + node * job.in_dim, job.x + r * job.x_words,
                        job.in_dim, job.grads + node * job.in_dim);
    }
  }
}

/// Rows per block of the weight sums: each block's row masks are made once
/// and serve every pass over the chunk's nodes.
inline constexpr size_t kBlockRows = 64;

/// The sums of inputs [i, i + kChunk) for every node of the chunk, into
/// sums (one Chunk a node, its lanes the inputs). Per block of rows, each
/// row's lane mask is the group's byte of the row's packed word
/// (complemented for a conjunction); then, Ops::kNodes nodes at a time in
/// registers, each row in ascending order adds each node's term under its
/// row's mask.
template <typename Ops>
inline void SumGroup(const BackwardJob& job, int i,
                     typename Ops::Chunk* sums) {
  using Chunk = typename Ops::Chunk;
  constexpr int kNodes = Ops::kNodes;
  const int n = job.in_dim - i;
  const uint64_t valid = n >= kChunk ? 0xff : (uint64_t{1} << n) - 1;
  const uint64_t flip = job.conj ? ~uint64_t{0} : 0;
  const uint64_t* word = job.x + i / 64;
  const int shift = i % 64;
  for (int k = 0; k < kChunk; ++k) sums[k] = Ops::Set1(0.0);
  typename Ops::Mask masks[kBlockRows];
  for (size_t lo = 0; lo < job.rows; lo += kBlockRows) {
    const size_t rows =
        job.rows - lo < kBlockRows ? job.rows - lo : kBlockRows;
    for (size_t r = 0; r < rows; ++r) {
      masks[r] = Ops::LaneMask(static_cast<unsigned>(
          ((word[(lo + r) * job.x_words] ^ flip) >> shift) & valid));
    }
    for (int k0 = 0; k0 < job.width; k0 += kNodes) {
      Chunk acc[kNodes];
#pragma GCC unroll 8
      for (int k = 0; k < kNodes; ++k) acc[k] = sums[k0 + k];
      const double* term = job.terms + lo * kChunk + k0;
      for (size_t r = 0; r < rows; ++r) {
#pragma GCC unroll 8
        for (int k = 0; k < kNodes; ++k) {
          acc[k] = Ops::MaskedAdd(acc[k], masks[r], Ops::Set1(term[k]));
        }
        term += kChunk;
      }
#pragma GCC unroll 8
      for (int k = 0; k < kNodes; ++k) sums[k0 + k] = acc[k];
    }
  }
}

/// Units::backward. The weight gradient of input i and node k is
/// sum_r g_r * rest_r over the rows that list i, rest_r = prod_r / c_ik; it
/// is taken factored, (sum_r g_r * prod_r) / c_ik. RowTerms writes every
/// row's terms (and runs the generic loop for the lanes that need it);
/// then, per group of 8 inputs, SumGroup sums them, and each weight adds
/// its quotient once, straight into the node's gradient row.
template <typename Ops>
bool Backward(const BackwardJob& job) {
  using Chunk = typename Ops::Chunk;
  const size_t first = static_cast<size_t>(job.first) * job.in_dim;
  const size_t n = static_cast<size_t>(job.width) * job.in_dim;
  if (!SumsApply(job.w + first, job.grads + first, n)) return false;
  RowTerms<Ops>(job);
  const Chunk one = Ops::Set1(1.0);
  const Chunk eps = Ops::Set1(kEps);
  for (int i = 0; i < job.in_dim; i += kChunk) {
    Chunk sums[kChunk];
    SumGroup<Ops>(job, i, sums);
    for (int k = 0; k < job.width; ++k) {
      const size_t at = first + static_cast<size_t>(k) * job.in_dim + i;
      const double* w = job.w + at;
      double* gw = job.grads + at;
      if (job.in_dim - i < kChunk) {
        double sum[kChunk];
        Ops::Store(sum, sums[k]);
        for (int j = 0; j < job.in_dim - i; ++j) {
          gw[j] = CanonicalNaN(gw[j] + sum[j] / ClampFactor(1.0 - w[j]));
        }
        continue;
      }
      // max(1 - w, kEps) is ClampFactor(1 - w) exactly.
      const Chunk c = Ops::Max(Ops::Sub(one, Ops::Load(w)), eps);
      const Chunk v = Ops::Add(Ops::Load(gw), Ops::Div(sums[k], c));
      Ops::Store(gw, v);
      for (unsigned m = ~Ops::LessEqual(v, v) & 0xffu; m != 0; m &= m - 1) {
        gw[__builtin_ctz(m)] = kGradientNaN;
      }
    }
  }
  return true;
}

// ---- Adam ------------------------------------------------------------------

/// Units::adam: the per-element update of AdamOptimizer::Step, eight
/// elements at a time where the tier has a quotient, with the same
/// operations in the same order; the scalar loop takes the rest.
template <typename Ops>
void Adam(const AdamJob& s, double* m, double* v, double* p, const double* g,
          size_t n) {
  size_t k = 0;
  if constexpr (Ops::kReciprocal) {
    using Chunk = typename Ops::Chunk;
    const Chunk beta1 = Ops::Set1(s.beta1);
    const Chunk beta2 = Ops::Set1(s.beta2);
    const Chunk one_minus_beta1 = Ops::Set1(s.one_minus_beta1);
    const Chunk one_minus_beta2 = Ops::Set1(s.one_minus_beta2);
    const Chunk bc1 = Ops::Set1(s.bc1);
    const Chunk bc2 = Ops::Set1(s.bc2);
    const Chunk inv_bc1 = Ops::Set1(s.inv_bc1);
    const Chunk inv_bc2 = Ops::Set1(s.inv_bc2);
    const Chunk lr = Ops::Set1(s.lr);
    const Chunk eps = Ops::Set1(s.eps);
    // A zero reciprocal marks a bias correction outside the range the
    // corrected quotient covers: every lane divides.
    const bool corrected = s.inv_bc1 != 0.0 && s.inv_bc2 != 0.0;
    for (; k + kChunk <= n; k += kChunk) {
      const Chunk gk = Ops::Load(g + k);
      const Chunk mk = Ops::Add(Ops::Mul(beta1, Ops::Load(m + k)),
                                Ops::Mul(one_minus_beta1, gk));
      const Chunk vk = Ops::Add(Ops::Mul(beta2, Ops::Load(v + k)),
                                Ops::Mul(Ops::Mul(one_minus_beta2, gk), gk));
      Ops::Store(m + k, mk);
      Ops::Store(v + k, vk);
      const Chunk mhat = corrected ? Ops::GuardedQuotient(mk, bc1, inv_bc1)
                                   : Ops::Div(mk, bc1);
      const Chunk vhat = corrected ? Ops::GuardedQuotient(vk, bc2, inv_bc2)
                                   : Ops::Div(vk, bc2);
      const Chunk step =
          Ops::Div(Ops::Mul(lr, mhat), Ops::Add(Ops::Sqrt(vhat), eps));
      Ops::Store(p + k, Ops::Sub(Ops::Load(p + k), step));
    }
  }
  for (; k < n; ++k) {
    const double gk = g[k];
    m[k] = s.beta1 * m[k] + s.one_minus_beta1 * gk;
    v[k] = s.beta2 * v[k] + s.one_minus_beta2 * gk * gk;
    const double mhat = m[k] / s.bc1;
    const double vhat = v[k] / s.bc2;
    p[k] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

// ---- Discrete pass ----------------------------------------------------------

/// Units::active_inputs: one comparison per eight weights. After training
/// under 2% of the weights are active, so most chunks write nothing.
template <typename Ops>
int ActiveInputs(const double* w, int n, int* active) {
  int count = 0;
  int i = 0;
  for (; i + kChunk <= n; i += kChunk) {
    for (unsigned m = Ops::AboveHalf(w + i); m != 0; m &= m - 1) {
      active[count++] = i + __builtin_ctz(m);
    }
  }
  for (; i < n; ++i) {
    if (w[i] > 0.5) active[count++] = i;
  }
  return count;
}

/// Units::vote: one lane per record, eight chunks for the block's 64. Every
/// sum starts at +0.0 and so never holds -0.0 (an IEEE sum is -0.0 only
/// when both addends are), which makes an off rule's +0.0 lane a no-op, and
/// so is a rule no record has on.
template <typename Ops>
void Vote(const uint64_t* words, const double* w, int num_rules,
          double* sums) {
  using Chunk = typename Ops::Chunk;
  constexpr int kChunks = 64 / kChunk;
  Chunk acc[kChunks];
#pragma GCC unroll 8
  for (int v = 0; v < kChunks; ++v) acc[v] = Ops::Set1(0.0);
  for (int j = 0; j < num_rules; ++j) {
    const uint64_t word = words[j];
    if (word == 0) continue;
    const Chunk wj = Ops::Set1(w[j]);
#pragma GCC unroll 8
    for (int v = 0; v < kChunks; ++v) {
      acc[v] = Ops::MaskedAdd(
          acc[v],
          Ops::LaneMask(static_cast<unsigned>(word >> (kChunk * v)) & 0xffu),
          wj);
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < kChunks; ++v) Ops::Store(sums + kChunk * v, acc[v]);
}

/// Units::axpy, eight elements at a time.
template <typename Ops>
void Axpy(double a, const double* x, double* y, size_t n) {
  using Chunk = typename Ops::Chunk;
  const Chunk av = Ops::Set1(a);
  size_t i = 0;
  for (; i + kChunk <= n; i += kChunk) {
    Ops::Store(y + i,
               Ops::Add(Ops::Load(y + i), Ops::Mul(av, Ops::Load(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// ---- Quotient probe --------------------------------------------------------

/// Units::quotient, through the tier's quotient with y = 1 / b by division
/// (the division itself on a tier without one).
template <typename Ops>
void Quotients(const double* a, const double* b, double* q, size_t n) {
  size_t k = 0;
  if constexpr (Ops::kReciprocal) {
    const typename Ops::Chunk one = Ops::Set1(1.0);
    for (; k + kChunk <= n; k += kChunk) {
      const typename Ops::Chunk bk = Ops::Load(b + k);
      Ops::Store(q + k,
                 Ops::Quotient(Ops::Load(a + k), bk, Ops::Div(one, bk)));
    }
  }
  for (; k < n; ++k) q[k] = a[k] / b[k];
}

template <typename Ops>
Units MakeUnits() {
  Units units;
  units.split_rows = Ops::SplitRows;
  units.build_chunk = Ops::BuildChunk;
  units.forward = Forward<Ops>;
  units.backward = Backward<Ops>;
  units.adam = Adam<Ops>;
  units.quotient = Quotients<Ops>;
  units.active_inputs = ActiveInputs<Ops>;
  units.vote = Vote<Ops>;
  units.axpy = Axpy<Ops>;
  return units;
}

}  // namespace
}  // namespace logic_kernel
}  // namespace ctfl

#endif  // CTFL_NN_LOGIC_KERNEL_BODY_H_
