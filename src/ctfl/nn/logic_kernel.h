#ifndef CTFL_NN_LOGIC_KERNEL_H_
#define CTFL_NN_LOGIC_KERNEL_H_

// The hot loops of a grafted training step (DESIGN.md §16.2): layer 0's
// group tables and grouped forward, its weight backward as sums into one
// bucket per (group, code), the Adam update, the discrete pass's
// active-input scan, and the vote layer's sums and gradient rows (§16.5).
// One translation unit per SIMD tier (logic_kernel_{generic,avx2,avx512}.cc)
// instantiates the shared bodies of logic_kernel_body.h with its own Ops
// policy and its own -m flags; the process-wide tier of util/cpu_features.h
// picks the unit, exactly as it picks the tracing kernel's stripe unit.
// Every unit produces the same bits as every other (DESIGN.md §16.3).
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

/// Nodes per chunk of layer 0's kernels: a chunk's running products, or its
/// product terms, stay in registers while one row's groups stream past.
inline constexpr int kChunk = 8;

/// Clamp floor for product terms; keeps y / t_i well defined in backward.
inline constexpr double kEps = 1e-8;

/// The one NaN a weight or input gradient holds when it ends NaN
/// (DESIGN.md §16.3): IEEE 754 leaves open which NaN a sum of two keeps.
inline constexpr double kGradientNaN = __builtin_nan("");

/// How a record sets the inputs of one group (DESIGN.md §16.2), and so
/// what its code is.
enum class GroupKind : uint8_t {
  /// The set inputs are a prefix of the group (the encoder's `x > l`
  /// bounds, ascending): code p sets inputs [0, p), p in [0, size].
  kPrefix,
  /// A suffix (the `x < u` bounds): code s sets inputs [s, size), s in
  /// [0, size].
  kSuffix,
  /// At most one (a discrete feature's one-hot categories): code c < size
  /// sets input c alone, code size sets none.
  kOneHot,
};

/// A run of a layer's inputs that each record codes as one of size + 1
/// codes. A layout is a list of groups, ascending, that covers the inputs
/// once; an input with no group of its own is a kPrefix group of size 1,
/// whose code is its bit.
struct InputGroup {
  GroupKind kind = GroupKind::kPrefix;
  int first = 0;  ///< the group's first input
  int size = 1;
  /// In a batch's GroupCodes, the index of the group's code 0 in a table
  /// or bucket array: its codes take entries [entry, entry + size].
  int entry = 0;
};

/// One batch under a layer's layout: the groups it keeps, ascending (a
/// group that some row of the batch does not code, such as two categories
/// set or a staircase with a hole, is taken as singletons), and per row and
/// group, the entry of the row's code.
struct GroupCodes {
  std::vector<InputGroup> groups;
  int entries = 0;  ///< sum over the groups of size + 1
  /// Row r's entries at codes[r * groups.size() + g].
  std::vector<int32_t> codes;
};

/// One unit of 1 or 2 chunks of one kind of the continuous forward: from
/// each chunk's factors, builds its entry per (group, code), the product of
/// the group's factors that the code's rows multiply; then writes
/// y(r, node) for every row and every node of the unit, each row's product
/// the entries of its codes multiplied in ascending group order.
struct ForwardJob {
  /// The chunks' factors max(kEps, 1 - w), input-major: chunk q's factor
  /// of input i and node first[q] + k at factors[(q * in_dim + i) * kChunk
  /// + k], 1.0 in the lanes past width[q].
  const double* factors = nullptr;
  /// Room for entries_per_chunk * kChunk doubles per chunk.
  double* entries = nullptr;
  int chunks = 1;
  bool conj = true;
  int in_dim = 0;
  /// The batch's GroupCodes, as plain pointers.
  const InputGroup* groups = nullptr;
  int num_groups = 0;
  int entries_per_chunk = 0;
  const int32_t* codes = nullptr;
  size_t rows = 0;
  double* y = nullptr;  ///< y(r, node) at y[r * y_stride + node]
  size_t y_stride = 0;
  int first[2] = {0, 0};
  int width[2] = {0, 0};
};

/// One chunk of layer 0's weight backward on a packed binary input: adds
/// the chunk's weight gradients to its node rows of `grads`. The terms
/// g' * prod of each row are summed into one bucket per (group, code),
/// rows ascending from +0.0; each input's sum over the rows that list it
/// (at 0 for a conjunction, at 1 for a disjunction) is read off its group's
/// buckets, then divided once by the weight's factor max(kEps, 1 - w)
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
  /// The batch's GroupCodes, as plain pointers.
  const InputGroup* groups = nullptr;
  int num_groups = 0;
  int entries = 0;
  const int32_t* codes = nullptr;
  /// The layer's cached output and upstream gradient (rows x out_dim).
  const double* y = nullptr;
  const double* dy = nullptr;
  size_t out_dim = 0;
  /// The weights and their gradients (out_dim x in_dim).
  const double* w = nullptr;
  double* grads = nullptr;
  /// Scratch of rows + entries + in_dim + kChunk chunks (kChunk doubles
  /// each): the rows' terms, the buckets and the inputs' sums.
  double* scratch = nullptr;
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
  /// Fills one chunk (in_dim x kChunk) of factors, as ForwardJob reads
  /// them, from the `width` node rows at `w0` (row stride in_dim). False
  /// when one of the weights is not finite.
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
  /// The vote layer's gradient sums of one class over columns [0, n) of a
  /// packed 0/1 block (n <= 64), one word a row at bits[r * stride]: for
  /// r in [0, rows) ascending with g[r * g_stride] nonzero, adds g to
  /// sums[c] for each set column c when g is finite, and axpy's g * x to
  /// every sums[c] when it is not. `sums` holds 64 doubles, none -0.0.
  void (*skip_sums)(const uint64_t* bits, size_t stride, int n,
                    const double* g, size_t g_stride, size_t rows,
                    double* sums);
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
