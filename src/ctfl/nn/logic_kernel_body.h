#ifndef CTFL_NN_LOGIC_KERNEL_BODY_H_
#define CTFL_NN_LOGIC_KERNEL_BODY_H_

// Shared bodies behind the per-tier logic-kernel units
// (logic_kernel_{generic,avx2,avx512}.cc). Each unit instantiates them with
// an Ops policy; the loop structure, the lane guards and every fallback are
// this one body, so the tiers differ only in how the eight lanes of a node
// chunk are touched. Everything here has internal linkage, and it calls no
// inline library function: every unit compiles its own copy with its own
// ISA flags, and none can lend the baseline code a copy built with wider
// ones.
//
// An Ops policy supplies:
//  - `Chunk`, eight doubles (one node chunk), with Load/Store (unaligned),
//    Set1, Mul, Add and Div, each the IEEE operation per lane;
//  - `kRows`, the rows the forward interleaves, and `kInputs`, the inputs
//    the backward sums at once (independent multiply or add chains hide
//    their latency);
//  - `kReciprocal`; when true, also Sub and Sqrt, Quotient(a, b, y)
//    (Markstein's corrected quotient with y = 1 / b, DESIGN.md §16.3) and
//    GuardedQuotient(a, b, y) (Quotient where |a| lies in [2^-900, 2^1000],
//    division elsewhere), which only Adam takes;
//  - SplitRows, BuildChunk and StoreChunk, with the contracts of Units;
//  - AboveHalf(p), the mask of the eight lanes with p[k] > 0.5 (bit k for
//    lane k), and MaskedAdd(acc, bits, w), acc + w in the lanes whose bit
//    is set and acc or acc + (+0.0) in the others (the same bits for every
//    acc but -0.0, which no vote sum holds).
//
// Bit-identity (DESIGN.md §16.3): every unit evaluates each result with
// the same operations in the same order as the oracle (tests/
// logic_oracle.h). The backward's weight gradient is factored: per weight,
// the sum of g * prod over the rows that list its input, in ascending row
// order, then one IEEE division by the weight's factor. Adam's quotient is
// either the IEEE division or the corrected quotient on operands where it
// provably equals it.

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

/// The portable chunk store.
inline void StoreChunkPortable(const double* gt, int in_dim, int width,
                               double* rows) {
  for (int k = 0; k < width; ++k) {
    double* row = rows + static_cast<size_t>(k) * in_dim;
    for (int i = 0; i < in_dim; ++i) {
      row[i] = CanonicalNaN(gt[static_cast<size_t>(i) * kChunk + k]);
    }
  }
}

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

/// Adds to acc[p] the terms of the rows whose bits are set in bits[p],
/// lowest first: kInputs independent add chains walk their common count in
/// lockstep, then each finishes its own.
template <typename Ops, int kInputs>
inline void AddListedTerms(const double* terms, uint64_t* bits,
                           typename Ops::Chunk* acc) {
  int common = 64;
#pragma GCC unroll 8
  for (int p = 0; p < kInputs; ++p) {
    const int count = __builtin_popcountll(bits[p]);
    common = count < common ? count : common;
  }
  for (int j = 0; j < common; ++j) {
#pragma GCC unroll 8
    for (int p = 0; p < kInputs; ++p) {
      const size_t row = static_cast<size_t>(__builtin_ctzll(bits[p]));
      acc[p] = Ops::Add(acc[p], Ops::Load(terms + row * kChunk));
      bits[p] &= bits[p] - 1;
    }
  }
#pragma GCC unroll 8
  for (int p = 0; p < kInputs; ++p) {
    for (uint64_t m = bits[p]; m != 0; m &= m - 1) {
      const size_t row = static_cast<size_t>(__builtin_ctzll(m));
      acc[p] = Ops::Add(acc[p], Ops::Load(terms + row * kChunk));
    }
  }
}

/// The factored weight gradients of inputs [i0, i0 + kInputs): each sums
/// the terms of its listed rows (at 0 for a conjunction, at 1 for a
/// disjunction) block by block, ascending, from +0.0, then adds sum / c.
template <typename Ops, int kInputs>
inline void AddFactoredInputs(const BackwardJob& job, int i0) {
  using Chunk = typename Ops::Chunk;
  Chunk acc[kInputs];
#pragma GCC unroll 8
  for (int p = 0; p < kInputs; ++p) acc[p] = Ops::Set1(0.0);
  const uint64_t flip = job.conj ? ~uint64_t{0} : 0;
  for (size_t lo = 0; lo < job.rows; lo += 64) {
    const size_t n = job.rows - lo;
    const uint64_t valid = n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    const uint64_t* column = job.columns + lo / 64 * job.column_stride + i0;
    uint64_t bits[kInputs];
#pragma GCC unroll 8
    for (int p = 0; p < kInputs; ++p) bits[p] = (column[p] ^ flip) & valid;
    AddListedTerms<Ops, kInputs>(job.terms + lo * kChunk, bits, acc);
  }
#pragma GCC unroll 8
  for (int p = 0; p < kInputs; ++p) {
    const size_t at = static_cast<size_t>(i0 + p) * kChunk;
    const Chunk q = Ops::Div(acc[p], Ops::Load(job.c + at));
    Ops::Store(job.gt + at, Ops::Add(Ops::Load(job.gt + at), q));
  }
}

/// Units::backward. The weight gradient of input i and node k is
/// sum_r g_r * rest_r over the rows that list i, rest_r = prod_r / c_ik; it
/// is taken factored, (sum_r g_r * prod_r) / c_ik: one add per listed
/// (row, input) and one division per weight. `g` is negated for a
/// conjunction (g * (-rest) and (-g) * rest are the same IEEE product).
/// A lane takes the table sum when its g is finite and nonzero and its
/// product lies in (0, 1]. Other lanes' terms are ±0 * 1, which leave a
/// sum unchanged (a sum from +0.0 never holds -0.0); those the generic
/// loop would not skip (g != 0 and not prod <= 0) run it for this (row,
/// node) on the row's bits, straight into `gt`, so a NaN or infinite g
/// propagates as in the generic loop. The sums then walk the batch
/// input-major, Ops::kInputs inputs at a time, and each weight adds its
/// quotient once.
template <typename Ops>
void Backward(const BackwardJob& job) {
  // The skipped terms' sign: (+0) * (-rest) for a conjunction.
  const double zero_g = job.conj ? -0.0 : 0.0;
  for (size_t r = 0; r < job.rows; ++r) {
    double g[kChunk];
    double prod[kChunk];
    bool generic[kChunk];
    const double* yr = job.y + r * job.out_dim;
    const double* dyr = job.dy + r * job.out_dim;
    for (int k = 0; k < kChunk; ++k) {
      g[k] = zero_g;
      prod[k] = 1.0;
      generic[k] = false;
      if (k >= job.width) continue;
      const int node = job.first + k;
      const double gv = dyr[node];
      const double pv = job.conj ? yr[node] : 1.0 - yr[node];
      if (gv != 0.0 && __builtin_isfinite(gv) && pv > 0.0 && pv <= 1.0) {
        g[k] = job.conj ? -gv : gv;
        prod[k] = pv;
      } else {
        generic[k] = gv != 0.0 && !(pv <= 0.0);
      }
    }
    Ops::Store(job.terms + r * kChunk,
               Ops::Mul(Ops::Load(g), Ops::Load(prod)));
    for (int k = 0; k < job.width; ++k) {
      if (!generic[k]) continue;
      const int node = job.first + k;
      job.node_gradient(job.conj, dyr[node],
                        job.conj ? yr[node] : 1.0 - yr[node],
                        job.w + static_cast<size_t>(node) * job.in_dim,
                        job.x + r * job.x_words, job.in_dim, job.gt + k,
                        kChunk);
    }
  }
  constexpr int kInputs = Ops::kInputs;
  int i = 0;
  for (; i + kInputs <= job.in_dim; i += kInputs) {
    AddFactoredInputs<Ops, kInputs>(job, i);
  }
  for (; i < job.in_dim; ++i) AddFactoredInputs<Ops, 1>(job, i);
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
          acc[v], static_cast<unsigned>(word >> (kChunk * v)) & 0xffu, wj);
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
  units.store_chunk = Ops::StoreChunk;
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
