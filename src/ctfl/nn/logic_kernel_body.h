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
//  - Transpose(c), which transposes the 8 x 8 doubles of c[0..7] in place
//    (lane k of c[j] becomes lane j of c[k]);
//  - `kRows`, the rows the forward interleaves;
//  - `kReciprocal`; when true, also Sqrt, Quotient(a, b, y) (Markstein's
//    corrected quotient with y = 1 / b, DESIGN.md §16.3) and
//    GuardedQuotient(a, b, y) (Quotient where |a| lies in [2^-900, 2^1000],
//    division elsewhere), which only Adam takes;
//  - AboveHalf(p), the mask of the eight lanes with p[k] > 0.5;
//  - `Mask`, eight lanes' bits in the form the tier adds under, made by
//    LaneMask(bits), and MaskedAdd(acc, mask, w), for a finite w: acc + w
//    in the lanes whose bit is set, and acc or acc + (±0.0) in the others,
//    the same bits for every acc but -0.0, which no sum from +0.0 holds (an
//    IEEE sum is -0.0 only when both addends are).
//
// Bit-identity (DESIGN.md §16.3): every unit evaluates each result with
// the same operations in the same order as the oracle (tests/
// logic_oracle.h). Layer 0 works on (row, group) codes: a group's entry
// per code is a product of its factors in a fixed order, a row multiplies
// one entry per group in ascending group order, and the weight gradient
// sums each row's terms into its code's bucket in ascending row order,
// reads each input's sum off its group's buckets in a fixed order, then
// divides once. No loop's trip count depends on the batch's bits. Adam's
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

/// v, or kGradientNaN when v is NaN.
inline double CanonicalNaN(double v) { return v != v ? kGradientNaN : v; }

// ---- Forward ----------------------------------------------------------------

/// True when every one of the n weights at `w` is finite: bit 63 of
/// (exponent field + 2^52) is set only for an all-ones exponent. Integer
/// adds and masks only, so the loop vectorizes on every tier.
inline bool AllFinite(const double* w, size_t n) {
  constexpr uint64_t kExponent = uint64_t{0x7ff} << 52;
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t wb;
    __builtin_memcpy(&wb, w + i, sizeof(wb));
    bad |= (wb & kExponent) + (uint64_t{1} << 52);
  }
  return bad >> 63 == 0;
}

/// Units::build_chunk: eight inputs at a time, the `width` node rows'
/// weights transposed into one chunk per input, and max(1 - w, kEps),
/// which is max(kEps, 1 - w) exactly. Lanes past `width`, and inputs past
/// in_dim, read 0.0, whose factor is 1.0.
template <typename Ops>
bool BuildChunk(const double* w0, int in_dim, int width, double* c) {
  using Chunk = typename Ops::Chunk;
  const Chunk one = Ops::Set1(1.0);
  const Chunk eps = Ops::Set1(kEps);
  for (int i = 0; i < in_dim; i += kChunk) {
    const int n = in_dim - i < kChunk ? in_dim - i : kChunk;
    Chunk w[kChunk];
    for (int k = 0; k < kChunk; ++k) {
      const double* row = w0 + static_cast<size_t>(k) * in_dim + i;
      if (k < width && n == kChunk) {
        w[k] = Ops::Load(row);
        continue;
      }
      double pad[kChunk] = {};
      for (int j = 0; k < width && j < n; ++j) pad[j] = row[j];
      w[k] = Ops::Load(pad);
    }
    Ops::Transpose(w);
    for (int j = 0; j < n; ++j) {
      Ops::Store(c + static_cast<size_t>(i + j) * kChunk,
                 Ops::Max(Ops::Sub(one, w[j]), eps));
    }
  }
  return AllFinite(w0, static_cast<size_t>(width) * in_dim);
}

/// The entries of one group of n inputs in one chunk, from the inputs'
/// factors f (n chunks) into e (n + 1 chunks): e[code] is the product of
/// the factors that a row of that code multiplies (its inputs at 0 for a
/// conjunction, at 1 for a disjunction), formed from Lo(p) = ((1 * f_0) *
/// f_1) * ... * f_{p-1} and Hi(p) = f_p * (f_{p+1} * (... * (f_{n-1} * 1)))
/// as DESIGN.md §16.3 fixes.
template <typename Ops>
inline void GroupEntries(GroupKind kind, bool conj, int n, const double* f,
                         double* e) {
  using Chunk = typename Ops::Chunk;
  const Chunk one = Ops::Set1(1.0);
  if (kind == GroupKind::kOneHot && !conj) {
    // The set input's factor alone (1 * f_c), or none.
    for (int c = 0; c < n; ++c) {
      Ops::Store(e + c * kChunk, Ops::Load(f + c * kChunk));
    }
    Ops::Store(e + n * kChunk, one);
    return;
  }
  if (kind == GroupKind::kOneHot) {
    // Every input but the set one: Lo(c) * Hi(c + 1); none set: Lo(n).
    Chunk hi = one;
    for (int c = n - 1; c >= 0; --c) {
      Ops::Store(e + c * kChunk, hi);
      hi = Ops::Mul(Ops::Load(f + c * kChunk), hi);
    }
    Chunk lo = one;
    for (int c = 0; c < n; ++c) {
      Ops::Store(e + c * kChunk, Ops::Mul(lo, Ops::Load(e + c * kChunk)));
      lo = Ops::Mul(lo, Ops::Load(f + c * kChunk));
    }
    Ops::Store(e + n * kChunk, lo);
    return;
  }
  // Code p of a prefix sets inputs [0, p), code s of a suffix [s, n): a
  // prefix's conjunction and a suffix's disjunction multiply the inputs
  // from the code up, Hi(code); the other two those below it, Lo(code).
  if ((kind == GroupKind::kPrefix) != conj) {
    Chunk lo = one;
    Ops::Store(e, lo);
    for (int p = 0; p < n; ++p) {
      lo = Ops::Mul(lo, Ops::Load(f + p * kChunk));
      Ops::Store(e + (p + 1) * kChunk, lo);
    }
  } else {
    Chunk hi = one;
    Ops::Store(e + n * kChunk, hi);
    for (int p = n - 1; p >= 0; --p) {
      hi = Ops::Mul(Ops::Load(f + p * kChunk), hi);
      Ops::Store(e + p * kChunk, hi);
    }
  }
}

/// Writes y for rows r0 .. r0 + kRows - 1 and the unit's kChunks chunks:
/// kRows x kChunks independent multiply chains, each row's entries in
/// ascending group order.
template <typename Ops, int kRows, int kChunks>
inline void ForwardRows(const ForwardJob& job, size_t r0) {
  using Chunk = typename Ops::Chunk;
  const size_t stride = static_cast<size_t>(job.entries_per_chunk) * kChunk;
  const int32_t* code[kRows];
  Chunk acc[kRows][kChunks];
#pragma GCC unroll 8
  for (int p = 0; p < kRows; ++p) {
    code[p] = job.codes + (r0 + p) * job.num_groups;
    const double* e = job.entries + static_cast<size_t>(code[p][0]) * kChunk;
#pragma GCC unroll 2
    for (int q = 0; q < kChunks; ++q) acc[p][q] = Ops::Load(e + q * stride);
  }
  for (int g = 1; g < job.num_groups; ++g) {
#pragma GCC unroll 8
    for (int p = 0; p < kRows; ++p) {
      const double* e = job.entries + static_cast<size_t>(code[p][g]) * kChunk;
#pragma GCC unroll 2
      for (int q = 0; q < kChunks; ++q) {
        acc[p][q] = Ops::Mul(acc[p][q], Ops::Load(e + q * stride));
      }
    }
  }
  const Chunk one = Ops::Set1(1.0);
  for (int p = 0; p < kRows; ++p) {
    double* yr = job.y + (r0 + p) * job.y_stride;
    for (int q = 0; q < kChunks; ++q) {
      const Chunk out = job.conj ? acc[p][q] : Ops::Sub(one, acc[p][q]);
      if (job.width[q] == kChunk) {
        Ops::Store(yr + job.first[q], out);
        continue;
      }
      double lanes[kChunk];
      Ops::Store(lanes, out);
      for (int k = 0; k < job.width[q]; ++k) yr[job.first[q] + k] = lanes[k];
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

/// Units::forward: each chunk's entries, group by group, then the rows'
/// products.
template <typename Ops>
void Forward(const ForwardJob& job) {
  for (int q = 0; q < job.chunks; ++q) {
    const double* factors =
        job.factors + static_cast<size_t>(q) * job.in_dim * kChunk;
    double* entries =
        job.entries + static_cast<size_t>(q) * job.entries_per_chunk * kChunk;
    for (int g = 0; g < job.num_groups; ++g) {
      const InputGroup& group = job.groups[g];
      GroupEntries<Ops>(group.kind, job.conj, group.size,
                        factors + static_cast<size_t>(group.first) * kChunk,
                        entries + static_cast<size_t>(group.entry) * kChunk);
    }
  }
  if (job.chunks == 2) {
    ForwardChunks<Ops, 2>(job);
  } else {
    ForwardChunks<Ops, 1>(job);
  }
}

// ---- Backward ---------------------------------------------------------------

/// True when none of the n gradients at `g` is -0.0: bit 63 of ~z & (z - 1)
/// is set only for z = 0, z being a gradient's bits against -0.0's.
/// Integer operations only, as in AllFinite.
inline bool NoNegativeZero(const double* g, size_t n) {
  constexpr uint64_t kNegativeZero = uint64_t{1} << 63;
  uint64_t bad = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t gb;
    __builtin_memcpy(&gb, g + i, sizeof(gb));
    const uint64_t z = gb ^ kNegativeZero;
    bad |= ~z & (z - 1);
  }
  return bad >> 63 == 0;
}

/// Writes each row's terms g' * prod to `terms` (kChunk a row), with
/// g' = -g for a conjunction, in the lanes whose g is finite and nonzero
/// and whose product lies in (0, 1]; +0.0 in the others, which the sums
/// then add without effect. Lanes the generic loop would not skip (g != 0
/// and not prod <= 0) but the sums leave out run it for this (row, node)
/// on the row's bits, straight into the node's gradient row, so a NaN or
/// infinite g propagates as in the generic loop.
template <typename Ops>
inline void RowTerms(const BackwardJob& job, double* terms) {
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
    Ops::Store(terms + r * kChunk,
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

/// Sums each row's terms into the bucket of its code in every group, rows
/// ascending from +0.0: buckets has room for job.entries chunks.
template <typename Ops>
inline void SumBuckets(const BackwardJob& job, const double* terms,
                       double* buckets) {
  using Chunk = typename Ops::Chunk;
  const Chunk zero = Ops::Set1(0.0);
  for (int e = 0; e < job.entries; ++e) Ops::Store(buckets + e * kChunk, zero);
  for (size_t r = 0; r < job.rows; ++r) {
    const Chunk t = Ops::Load(terms + r * kChunk);
    const int32_t* code = job.codes + r * job.num_groups;
    for (int g = 0; g < job.num_groups; ++g) {
      double* b = buckets + static_cast<size_t>(code[g]) * kChunk;
      Ops::Store(b, Ops::Add(Ops::Load(b), t));
    }
  }
}

/// Each input's sum over the rows that list it, read off the buckets b
/// (n + 1 chunks) of one group of n inputs into s (n chunks), from Up(j) =
/// ((+0 + b_0) + b_1) + ... + b_{j-1} and Down(j) = b_j + (b_{j+1} + (... +
/// (b_n + +0))) as DESIGN.md §16.3 fixes: O(n) adds per group.
template <typename Ops>
inline void GroupSums(GroupKind kind, bool conj, int n, const double* b,
                      double* s) {
  using Chunk = typename Ops::Chunk;
  const Chunk zero = Ops::Set1(0.0);
  if (kind == GroupKind::kOneHot && !conj) {
    // Only the input's own code lists it.
    for (int j = 0; j < n; ++j) {
      Ops::Store(s + j * kChunk, Ops::Load(b + j * kChunk));
    }
    return;
  }
  if (kind == GroupKind::kOneHot) {
    // Every code but the input's own: Up(j) + Down(j + 1).
    Chunk down = zero;
    for (int j = n - 1; j >= 0; --j) {
      down = Ops::Add(Ops::Load(b + (j + 1) * kChunk), down);
      Ops::Store(s + j * kChunk, down);
    }
    Chunk up = zero;
    for (int j = 0; j < n; ++j) {
      Ops::Store(s + j * kChunk, Ops::Add(up, Ops::Load(s + j * kChunk)));
      up = Ops::Add(up, Ops::Load(b + j * kChunk));
    }
    return;
  }
  // A prefix's conjunction and a suffix's disjunction list input j for the
  // codes up to j, Up(j + 1); the other two for the codes above, Down(j + 1).
  if ((kind == GroupKind::kPrefix) == conj) {
    Chunk up = zero;
    for (int j = 0; j < n; ++j) {
      up = Ops::Add(up, Ops::Load(b + j * kChunk));
      Ops::Store(s + j * kChunk, up);
    }
  } else {
    Chunk down = zero;
    for (int j = n - 1; j >= 0; --j) {
      down = Ops::Add(Ops::Load(b + (j + 1) * kChunk), down);
      Ops::Store(s + j * kChunk, down);
    }
  }
}

/// Units::backward. The weight gradient of input i and node k is
/// sum_r g_r * rest_r over the rows that list i, rest_r = prod_r / c_ik; it
/// is taken factored, (sum_r g_r * prod_r) / c_ik. RowTerms writes every
/// row's terms (and runs the generic loop for the lanes that need it);
/// SumBuckets sums them per (group, code) and GroupSums reads each input's
/// sum, a chunk whose lanes are the nodes; eight inputs at a time, a
/// transpose turns them into node rows, and each weight adds its quotient
/// once, straight into the node's gradient row.
template <typename Ops>
bool Backward(const BackwardJob& job) {
  using Chunk = typename Ops::Chunk;
  const size_t first = static_cast<size_t>(job.first) * job.in_dim;
  const size_t n = static_cast<size_t>(job.width) * job.in_dim;
  if (!AllFinite(job.w + first, n) || !NoNegativeZero(job.grads + first, n)) {
    return false;
  }
  double* terms = job.scratch;
  double* buckets = terms + job.rows * kChunk;
  double* sums = buckets + static_cast<size_t>(job.entries) * kChunk;
  RowTerms<Ops>(job, terms);
  SumBuckets<Ops>(job, terms, buckets);
  for (int g = 0; g < job.num_groups; ++g) {
    const InputGroup& group = job.groups[g];
    GroupSums<Ops>(group.kind, job.conj, group.size,
                   buckets + static_cast<size_t>(group.entry) * kChunk,
                   sums + static_cast<size_t>(group.first) * kChunk);
  }
  const Chunk zero = Ops::Set1(0.0);
  // The last group of 8 inputs transposes whole chunks past in_dim.
  for (int i = job.in_dim; i % kChunk != 0; ++i) {
    Ops::Store(sums + static_cast<size_t>(i) * kChunk, zero);
  }
  const Chunk one = Ops::Set1(1.0);
  const Chunk eps = Ops::Set1(kEps);
  for (int i = 0; i < job.in_dim; i += kChunk) {
    Chunk node_sums[kChunk];
#pragma GCC unroll 8
    for (int j = 0; j < kChunk; ++j) {
      node_sums[j] = Ops::Load(sums + static_cast<size_t>(i + j) * kChunk);
    }
    Ops::Transpose(node_sums);
    for (int k = 0; k < job.width; ++k) {
      const size_t at = first + static_cast<size_t>(k) * job.in_dim + i;
      const double* w = job.w + at;
      double* gw = job.grads + at;
      if (job.in_dim - i < kChunk) {
        double sum[kChunk];
        Ops::Store(sum, node_sums[k]);
        for (int j = 0; j < job.in_dim - i; ++j) {
          gw[j] = CanonicalNaN(gw[j] + sum[j] / ClampFactor(1.0 - w[j]));
        }
        continue;
      }
      // max(1 - w, kEps) is ClampFactor(1 - w) exactly.
      const Chunk c = Ops::Max(Ops::Sub(one, Ops::Load(w)), eps);
      const Chunk v = Ops::Add(Ops::Load(gw), Ops::Div(node_sums[k], c));
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

/// Units::skip_sums: the eight chunks of one 64-column word's sums stay in
/// registers while the rows stream past, a finite g added under the row's
/// mask bytes (the masked add Vote uses, on sums from +0.0), a non-finite
/// one by Axpy on the row's 0/1 values, as the dense product takes it.
template <typename Ops>
void SkipSums(const uint64_t* bits, size_t stride, int n, const double* g,
              size_t g_stride, size_t rows, double* sums) {
  using Chunk = typename Ops::Chunk;
  constexpr int kChunks = 64 / kChunk;
  const uint64_t valid = n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  Chunk acc[kChunks];
#pragma GCC unroll 8
  for (int v = 0; v < kChunks; ++v) acc[v] = Ops::Load(sums + kChunk * v);
  for (size_t r = 0; r < rows; ++r) {
    const double gr = g[r * g_stride];
    if (gr == 0.0) continue;
    const uint64_t word = bits[r * stride] & valid;
    if (__builtin_isfinite(gr)) {
      const Chunk gv = Ops::Set1(gr);
#pragma GCC unroll 8
      for (int v = 0; v < kChunks; ++v) {
        acc[v] = Ops::MaskedAdd(
            acc[v],
            Ops::LaneMask(static_cast<unsigned>(word >> (kChunk * v)) & 0xffu),
            gv);
      }
      continue;
    }
    // NaN or ±inf: every column's term g * x, 0 * g included.
    double x[64];
    for (int c = 0; c < 64; ++c) x[c] = (word >> c) & 1 ? 1.0 : 0.0;
#pragma GCC unroll 8
    for (int v = 0; v < kChunks; ++v) Ops::Store(sums + kChunk * v, acc[v]);
    Axpy<Ops>(gr, x, sums, static_cast<size_t>(n));
#pragma GCC unroll 8
    for (int v = 0; v < kChunks; ++v) acc[v] = Ops::Load(sums + kChunk * v);
  }
#pragma GCC unroll 8
  for (int v = 0; v < kChunks; ++v) Ops::Store(sums + kChunk * v, acc[v]);
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
  units.build_chunk = BuildChunk<Ops>;
  units.forward = Forward<Ops>;
  units.backward = Backward<Ops>;
  units.adam = Adam<Ops>;
  units.quotient = Quotients<Ops>;
  units.active_inputs = ActiveInputs<Ops>;
  units.vote = Vote<Ops>;
  units.axpy = Axpy<Ops>;
  units.skip_sums = SkipSums<Ops>;
  return units;
}

}  // namespace
}  // namespace logic_kernel
}  // namespace ctfl

#endif  // CTFL_NN_LOGIC_KERNEL_BODY_H_
