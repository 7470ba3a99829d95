#ifndef CTFL_NN_LOGIC_KERNEL_H_
#define CTFL_NN_LOGIC_KERNEL_H_

// The hot loops of a grafted training step (DESIGN.md §16.2): layer 0's
// row split of the packed batch, factor table and factor-table forward,
// its weight backward as masked sums over the packed rows, the Adam
// update, the discrete pass's active-input scan, and the vote layer's sums
// and gradient rows (§16.5). One translation unit per SIMD tier
// (logic_kernel_{generic,avx2,avx512}.cc) instantiates the shared bodies
// of logic_kernel_body.h with its own Ops policy and its own -m flags; the
// process-wide tier of util/cpu_features.h picks the unit, exactly as it
// picks the tracing kernel's stripe unit. Every unit produces the generic
// loops' results bit for bit (DESIGN.md §16.3).
//
// The units see plain pointers only: nothing here is an inline function
// that a unit built with wider ISA flags could emit a copy of for the
// baseline code to link against.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ctfl/util/cpu_features.h"

namespace ctfl {
namespace logic_kernel {

/// Nodes per chunk of the factor-table kernels: a chunk's running products,
/// or its upstream gradients and product terms, stay in registers while
/// one row's inputs stream past.
inline constexpr int kChunk = 8;

/// Clamp floor for product terms; keeps y / t_i well defined in backward.
inline constexpr double kEps = 1e-8;

/// The one NaN a weight or input gradient holds when it ends NaN
/// (DESIGN.md §16.3): IEEE 754 leaves open which NaN a sum of two keeps.
inline constexpr double kGradientNaN = __builtin_nan("");

/// Per row of a packed binary input (PackedRows), its inputs at 0 and its
/// inputs at 1, each ascending: the inputs whose factor a conjunction,
/// respectively a disjunction, multiplies.
struct SplitRows {
  /// Row r's lists start at r * in_dim (the input's column count); zeros[r]
  /// inputs are at 0 and in_dim - zeros[r] at 1.
  std::vector<int> at_zero;
  std::vector<int> at_one;
  std::vector<int> zeros;
};

/// The one factor a binary input contributes to a node, per node chunk:
/// a conjunction's factor 1 - w(1 - x) is exactly 1.0 at x = 1 and
/// max(kEps, 1 - w) at x = 0; a disjunction's, 1 - w x, is exactly 1.0 at
/// x = 0 and max(kEps, 1 - w) at x = 1. Chunks never mix the two kinds.
struct FactorTable {
  int in_dim = 0;
  int conj_chunks = 0;
  std::vector<int> first;  ///< first node of each chunk
  std::vector<int> width;  ///< nodes in each chunk, <= kChunk
  /// c[(q * in_dim + i) * kChunk + k] for node first[q] + k; 1.0 in the
  /// lanes past width[q].
  std::vector<double> c;

  int chunks() const { return static_cast<int>(first.size()); }
  bool conj(int q) const { return q < conj_chunks; }
  size_t Offset(int q, int i) const {
    return (static_cast<size_t>(q) * in_dim + i) * kChunk;
  }
};

/// One unit of 1 or 2 chunks of one kind of the continuous forward: writes
/// y(r, node) for every row and every node of the unit.
struct ForwardJob {
  const double* table = nullptr;  ///< the unit's first chunk, input 0
  size_t chunk_stride = 0;        ///< doubles from one chunk to the next
  int chunks = 1;
  bool conj = true;
  /// at_zero (conj) or at_one of the split; row r's list at r * in_dim.
  const int* lists = nullptr;
  const int* zeros = nullptr;
  int in_dim = 0;
  size_t rows = 0;
  double* y = nullptr;  ///< y(r, node) at y[r * y_stride + node]
  size_t y_stride = 0;
  int first[2] = {0, 0};
  int width[2] = {0, 0};
};

/// One chunk of layer 0's weight backward on a packed binary input: adds
/// the chunk's weight gradients to its node rows of `grads`. Per weight,
/// the terms g' * prod of the rows that list its input (at 0 for a
/// conjunction, at 1 for a disjunction) are summed from +0.0 in ascending
/// row order, then divided once by the weight's factor max(kEps, 1 - w)
/// (DESIGN.md §16.3).
struct BackwardJob {
  bool conj = true;
  int first = 0;
  int width = 0;
  int in_dim = 0;
  size_t rows = 0;
  /// The packed input, x_words words per row.
  const uint64_t* x = nullptr;
  size_t x_words = 0;
  /// The layer's cached output and upstream gradient (rows x out_dim).
  const double* y = nullptr;
  const double* dy = nullptr;
  size_t out_dim = 0;
  /// The weights and their gradients (out_dim x in_dim).
  const double* w = nullptr;
  double* grads = nullptr;
  double* terms = nullptr;  ///< room for rows x kChunk terms
  /// The generic per-(row, node) gradient, for the lanes the sums leave
  /// out: adds g * dy/dw_i to gw[i] for node weights `w` and the input row
  /// whose bits are `xr`, each read as 0.0 or 1.0.
  void (*node_gradient)(bool conj, double g, double prod, const double* w,
                        const uint64_t* xr, int in_dim, double* gw) = nullptr;
};

/// The step-invariant scalars of one Adam update.
struct AdamJob {
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double one_minus_beta1 = 0.0;
  double one_minus_beta2 = 0.0;
  double eps = 0.0;
  double bc1 = 0.0;
  double bc2 = 0.0;
  double inv_bc1 = 0.0;  ///< 1.0 / bc1, correctly rounded
  double inv_bc2 = 0.0;
};

/// One tier's units.
struct Units {
  /// Splits rows [lo, hi) of the packed `x` (in_dim bits in x_words words
  /// per row, record-major) into the lists of SplitRows (sized by the
  /// caller).
  void (*split_rows)(const uint64_t* x, size_t x_words, int in_dim,
                     size_t lo, size_t hi, int* at_zero, int* at_one,
                     int* zeros);
  /// Fills one chunk (in_dim x kChunk) of the table from the `width` node
  /// rows at `w0` (row stride in_dim). False when one of the weights is not
  /// finite.
  bool (*build_chunk)(const double* w0, int in_dim, int width, double* c);
  void (*forward)(const ForwardJob& job);
  /// False, having written nothing, when one of the chunk's weights is not
  /// finite or one of its gradients is -0.0: the caller then runs the
  /// generic loop for the chunk. Every gradient of the chunk that ends NaN
  /// is kGradientNaN.
  bool (*backward)(const BackwardJob& job);
  /// Adam over elements [0, n) of one slot.
  void (*adam)(const AdamJob& job, double* m, double* v, double* p,
               const double* g, size_t n);
  /// q[k] = a[k] / b[k] through the tier's corrected quotient (the division
  /// itself on a tier without one), for Adam's operands (a[k] in [2^-900,
  /// 2^1000], b[k] in [2^-20, 1]) and for a[k] in [2^-900, 1] over b[k] in
  /// [kEps, 1].
  void (*quotient)(const double* a, const double* b, double* q, size_t n);
  /// Writes the indices i in [0, n) with w[i] > 0.5 to `active`, ascending,
  /// and returns their count; `active` has room for n.
  int (*active_inputs)(const double* w, int n, int* active);
  /// The vote sums of one block of up to 64 records: sums[r], for r in
  /// [0, 64), is the sum of w[j] over the rules j in [0, num_rules) whose
  /// word words[j] has bit r set, added in ascending j from +0.0.
  void (*vote)(const uint64_t* words, const double* w, int num_rules,
               double* sums);
  /// y[i] += a * x[i] for i in [0, n): the rounded product, then the
  /// rounded sum (the vote layer's gradient rows).
  void (*axpy)(double a, const double* x, double* y, size_t n);
};

const Units& GenericUnits();
const Units& Avx2Units();
const Units& Avx512Units();

/// The units of `isa`: AVX2 (with FMA) and AVX-512 have their own, every
/// other tier runs the generic unit.
const Units& UnitsFor(TraceIsa isa);

}  // namespace logic_kernel
}  // namespace ctfl

#endif  // CTFL_NN_LOGIC_KERNEL_H_
