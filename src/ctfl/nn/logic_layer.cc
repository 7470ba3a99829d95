#include "ctfl/nn/logic_layer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "ctfl/util/logging.h"

namespace ctfl {
namespace {

// Clamp floor for product terms; keeps y / t_i well defined in backward.
constexpr double kEps = 1e-8;

/// Nodes per chunk of the factor-table kernels: a chunk's running products,
/// or its upstream gradients and product terms, stay in registers while
/// one row's inputs stream past.
constexpr int kChunk = 8;
constexpr int kPairs = kChunk / 2;

/// Two adjacent lanes of a node chunk, as a generic vector: each lane
/// operation is the scalar IEEE operation (ctfl_nn builds with
/// -ffp-contract=off, so nothing fuses), and the compiler lowers it to the
/// target's vectors (SSE2 on baseline x86-64) or to scalars.
typedef double Lanes __attribute__((vector_size(16)));

inline Lanes LoadLanes(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreLanes(double* p, Lanes v) { std::memcpy(p, &v, sizeof(v)); }

/// The generic per-(row, node) gradient of the continuous form, in the
/// order and with the expressions every kernel must reproduce. Adds
/// g * dy/dw_i to gw[i * stride] and, when `dxr` is non-null,
/// g * dy/dx_i to dxr[i]. `prod` is the node's product term: y for a
/// conjunction, 1 - y for a disjunction.
void NodeGradient(bool conj, double g, double prod, const double* w,
                  const double* xr, int in_dim, double* gw, size_t stride,
                  double* dxr) {
  if (conj) {
    for (int i = 0; i < in_dim; ++i) {
      const double t = std::max(kEps, 1.0 - w[i] * (1.0 - xr[i]));
      const double rest = prod / t;  // product of the other terms, <= 1
      gw[i * stride] += g * (-(1.0 - xr[i]) * rest);
      if (dxr != nullptr) dxr[i] += g * (w[i] * rest);
    }
  } else {
    for (int i = 0; i < in_dim; ++i) {
      const double s = std::max(kEps, 1.0 - w[i] * xr[i]);
      const double rest = prod / s;
      gw[i * stride] += g * (xr[i] * rest);
      if (dxr != nullptr) dxr[i] += g * (w[i] * rest);
    }
  }
}

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

/// Builds the table from `w` (out x in). False when a weight is not
/// finite: only then can a skipped factor differ from 1.0.
bool BuildFactorTable(const Matrix& w, int num_conj, FactorTable* t) {
  const int out = static_cast<int>(w.rows());
  t->in_dim = static_cast<int>(w.cols());
  for (int node = 0; node < num_conj; node += kChunk) {
    t->first.push_back(node);
    t->width.push_back(std::min(kChunk, num_conj - node));
  }
  t->conj_chunks = t->chunks();
  for (int node = num_conj; node < out; node += kChunk) {
    t->first.push_back(node);
    t->width.push_back(std::min(kChunk, out - node));
  }
  t->c.resize(static_cast<size_t>(t->chunks()) * t->in_dim * kChunk);
  bool finite = true;
  for (int q = 0; q < t->chunks(); ++q) {
    const double* w0 = w.row(t->first[q]);
    for (int i = 0; i < t->in_dim; ++i) {
      double* c = t->c.data() + t->Offset(q, i);
      for (int k = 0; k < kChunk; ++k) {
        if (k >= t->width[q]) {
          c[k] = 1.0;
          continue;
        }
        const double v = w0[static_cast<size_t>(k) * t->in_dim + i];
        finite &= std::isfinite(v);
        c[k] = std::max(kEps, 1.0 - v);
      }
    }
  }
  return finite;
}

/// Per row of a binary matrix, its inputs at 0 and its inputs at 1, each
/// ascending: the inputs whose factor a conjunction, respectively a
/// disjunction, multiplies.
struct SplitRows {
  int in_dim = 0;
  /// Row r's lists start at r * in_dim; zeros[r] inputs are at 0 and
  /// in_dim - zeros[r] at 1.
  std::vector<int> at_zero;
  std::vector<int> at_one;
  std::vector<int> zeros;

  const int* Begin(size_t r, bool conj) const {
    return (conj ? at_zero : at_one).data() + r * in_dim;
  }
  int Count(size_t r, bool conj) const {
    return conj ? zeros[r] : in_dim - zeros[r];
  }
};

/// False when some element of `x` is not exactly 0.0 or 1.0.
bool SplitBinaryRows(const Matrix& x, SplitRows* rows) {
  const int in_dim = static_cast<int>(x.cols());
  rows->in_dim = in_dim;
  rows->at_zero.resize(x.rows() * in_dim);
  rows->at_one.resize(x.rows() * in_dim);
  rows->zeros.resize(x.rows());
  bool binary = true;
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    int* at_zero = rows->at_zero.data() + r * in_dim;
    int* at_one = rows->at_one.data() + r * in_dim;
    // Branch-free compaction: input i goes to the end of both lists, and
    // only the matching list's end advances (both ends stay <= i).
    int zeros = 0;
    int ones = 0;
    for (int i = 0; i < in_dim; ++i) {
      const bool zero = xr[i] == 0.0;
      binary &= zero || xr[i] == 1.0;
      at_zero[zeros] = i;
      at_one[ones] = i;
      zeros += zero;
      ones += !zero;
    }
    rows->zeros[r] = zeros;
  }
  return binary;
}

// One (row, chunk) step of the table kernels: walks the row's input list
// over the chunk's table rows (`table` = the chunk's row for input 0).

/// acc[k] = product of the listed inputs' factors, in list order, for
/// `kChunks` chunks of one kind side by side (`chunk_stride` doubles
/// apart in the table): more independent products hide the multiply
/// latency.
template <int kChunks>
void MultiplyFactors(const double* table, size_t chunk_stride,
                     const int* inputs, int count, double* acc) {
  Lanes a[kChunks][kPairs];
  for (int q = 0; q < kChunks; ++q) {
    for (int k = 0; k < kPairs; ++k) a[q][k] = Lanes{1.0, 1.0};
  }
  for (int j = 0; j < count; ++j) {
    const double* c = table + static_cast<size_t>(inputs[j]) * kChunk;
    for (int q = 0; q < kChunks; ++q) {
      for (int k = 0; k < kPairs; ++k) {
        a[q][k] *= LoadLanes(c + q * chunk_stride + 2 * k);
      }
    }
  }
  for (int q = 0; q < kChunks; ++q) {
    for (int k = 0; k < kPairs; ++k) {
      StoreLanes(acc + q * kChunk + 2 * k, a[q][k]);
    }
  }
}

/// Adds g * (-(1 - 0) * rest) (conjunction, inputs at 0) or g * (1 * rest)
/// (disjunction, inputs at 1), rest = prod / c, to the listed inputs'
/// accumulators.
template <bool kConj>
void AddGradientTerms(const double* table, const int* inputs, int count,
                      const double* g, const double* prod, double* gt) {
  Lanes gv[kPairs];
  Lanes pv[kPairs];
  for (int k = 0; k < kPairs; ++k) {
    gv[k] = LoadLanes(g + 2 * k);
    pv[k] = LoadLanes(prod + 2 * k);
  }
  for (int j = 0; j < count; ++j) {
    const size_t at = static_cast<size_t>(inputs[j]) * kChunk;
    for (int k = 0; k < kPairs; ++k) {
      const Lanes rest = pv[k] / LoadLanes(table + at + 2 * k);
      const Lanes term = kConj ? gv[k] * -rest : gv[k] * rest;
      double* acc = gt + at + 2 * k;
      StoreLanes(acc, LoadLanes(acc) + term);
    }
  }
}

/// The continuous forward of layer `w` (num_conj conjunctions first)
/// through the factor table. False, with `y` untouched, when `x` is not
/// binary or a weight is not finite. Multiplying by a skipped factor's
/// exact 1.0 would change nothing, so each node multiplies its remaining
/// factors in ascending input order, as the generic loop does.
bool ForwardByTable(const Matrix& w, int num_conj, const Matrix& x,
                    Matrix* y) {
  SplitRows rows;
  FactorTable t;
  if (!SplitBinaryRows(x, &rows) || !BuildFactorTable(w, num_conj, &t)) {
    return false;
  }
  const size_t chunk_stride = t.Offset(1, 0);
  for (int q = 0; q < t.chunks();) {
    const bool conj = t.conj(q);
    const int pair = q + 1 < t.chunks() && t.conj(q + 1) == conj ? 2 : 1;
    for (size_t r = 0; r < x.rows(); ++r) {
      double acc[2 * kChunk];
      (pair == 2 ? MultiplyFactors<2> : MultiplyFactors<1>)(
          t.c.data() + t.Offset(q, 0), chunk_stride, rows.Begin(r, conj),
          rows.Count(r, conj), acc);
      for (int p = 0; p < pair; ++p) {
        double* yr = y->row(r) + t.first[q + p];
        for (int k = 0; k < t.width[q + p]; ++k) {
          const double prod = acc[p * kChunk + k];
          yr[k] = conj ? prod : 1.0 - prod;
        }
      }
    }
    q += pair;
  }
  return true;
}

/// The parameter backward of layer `w` through the factor table,
/// accumulating into `grads`. False, with `grads` untouched, when `x` is
/// not binary, a weight is not finite, or a gradient holds -0.0.
bool BackwardWeightsByTable(const Matrix& w, int num_conj, const Matrix& x,
                            const Matrix& y, const Matrix& dy,
                            Matrix* grads) {
  SplitRows rows;
  FactorTable t;
  if (!SplitBinaryRows(x, &rows) || !BuildFactorTable(w, num_conj, &t)) {
    return false;
  }
  const int in_dim = t.in_dim;
  // Chunk-major copy of the accumulators. A skipped term is ±0.0, which
  // leaves an accumulator's bits unchanged unless it holds -0.0: zeroed
  // gradients are +0.0 and sums of terms never yield -0.0, so only a
  // caller's own -0.0 sends the call to the generic loop.
  std::vector<double> gt(t.c.size(), 0.0);
  bool negative_zero = false;
  for (int q = 0; q < t.chunks(); ++q) {
    for (int k = 0; k < t.width[q]; ++k) {
      const double* gw = grads->row(t.first[q] + k);
      for (int i = 0; i < in_dim; ++i) {
        negative_zero |= gw[i] == 0.0 && std::signbit(gw[i]);
        gt[t.Offset(q, i) + k] = gw[i];
      }
    }
  }
  if (negative_zero) return false;
  for (int q = 0; q < t.chunks(); ++q) {
    const bool conj = t.conj(q);
    double* chunk_gt = gt.data() + t.Offset(q, 0);
    for (size_t r = 0; r < x.rows(); ++r) {
      // A lane takes the table loop when its g is finite and nonzero and
      // its product lies in (0, 1]: then rest = prod / c is finite and
      // every skipped term g * (0 * rest) is ±0.0. Other lanes enter it as
      // g = 0, prod = 1, adding only ±0.0; those the generic loop would
      // not skip then run it for this (row, node), so a NaN or infinite g
      // propagates exactly as in the generic loop.
      double g[kChunk];
      double prod[kChunk];
      bool generic[kChunk];
      for (int k = 0; k < kChunk; ++k) {
        g[k] = 0.0;
        prod[k] = 1.0;
        generic[k] = false;
        if (k >= t.width[q]) continue;
        const int node = t.first[q] + k;
        const double gv = dy(r, node);
        const double pv = conj ? y(r, node) : 1.0 - y(r, node);
        if (gv != 0.0 && std::isfinite(gv) && pv > 0.0 && pv <= 1.0) {
          g[k] = gv;
          prod[k] = pv;
        } else {
          generic[k] = gv != 0.0 && !(pv <= 0.0);
        }
      }
      // Divide only where the forward multiplied.
      (conj ? AddGradientTerms<true> : AddGradientTerms<false>)(
          t.c.data() + t.Offset(q, 0), rows.Begin(r, conj),
          rows.Count(r, conj), g, prod, chunk_gt);
      for (int k = 0; k < t.width[q]; ++k) {
        if (!generic[k]) continue;
        const int node = t.first[q] + k;
        NodeGradient(conj, dy(r, node), conj ? y(r, node) : 1.0 - y(r, node),
                     w.row(node), x.row(r), in_dim, chunk_gt + k, kChunk,
                     nullptr);
      }
    }
  }
  for (int q = 0; q < t.chunks(); ++q) {
    for (int k = 0; k < t.width[q]; ++k) {
      double* gw = grads->row(t.first[q] + k);
      for (int i = 0; i < in_dim; ++i) gw[i] = gt[t.Offset(q, i) + k];
    }
  }
  return true;
}

}  // namespace

void PackRows(const Matrix& x, size_t lo, size_t n, uint64_t* words) {
  CTFL_CHECK(n <= kRecordsPerWord && lo + n <= x.rows());
  const size_t cols = x.cols();
  std::fill(words, words + cols, uint64_t{0});
  for (size_t r = 0; r < n; ++r) {
    const double* xr = x.row(lo + r);
    for (size_t i = 0; i < cols; ++i) {
      words[i] |= static_cast<uint64_t>(xr[i] >= 0.5) << r;
    }
  }
}

LogicLayer::LogicLayer(int in_dim, int num_conj, int num_disj)
    : in_dim_(in_dim),
      num_conj_(num_conj),
      num_disj_(num_disj),
      weights_(num_conj + num_disj, in_dim),
      grads_(num_conj + num_disj, in_dim) {
  CTFL_CHECK(in_dim > 0);
  CTFL_CHECK(num_conj >= 0 && num_disj >= 0 && num_conj + num_disj > 0);
}

void LogicLayer::InitSparse(Rng& rng, int fan_in) {
  weights_.Fill(0.0);
  fan_in = std::min(fan_in, in_dim_);
  for (int node = 0; node < out_dim(); ++node) {
    for (int k = 0; k < fan_in; ++k) {
      const int input = static_cast<int>(rng.UniformInt(in_dim_));
      weights_(node, input) = rng.Uniform(0.55, 0.95);
    }
  }
}

Matrix LogicLayer::ForwardContinuous(const Matrix& x) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  Matrix y(x.rows(), out_dim());
  if (ForwardByTable(weights_, num_conj_, x, &y)) return y;
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    for (int node = 0; node < out_dim(); ++node) {
      const double* w = weights_.row(node);
      double prod = 1.0;
      if (IsConjNode(node)) {
        for (int i = 0; i < in_dim_; ++i) {
          if (w[i] == 0.0) continue;
          prod *= std::max(kEps, 1.0 - w[i] * (1.0 - xr[i]));
        }
        y(r, node) = prod;
      } else {
        for (int i = 0; i < in_dim_; ++i) {
          if (w[i] == 0.0) continue;
          prod *= std::max(kEps, 1.0 - w[i] * xr[i]);
        }
        y(r, node) = 1.0 - prod;
      }
    }
  }
  return y;
}

void LogicLayer::BuildActiveLists(ActiveLists* lists) const {
  const int out = out_dim();
  lists->begin.resize(static_cast<size_t>(out) + 1);
  lists->inputs.clear();
  lists->inputs.reserve(static_cast<size_t>(out) * 4);
  for (int node = 0; node < out; ++node) {
    lists->begin[node] = static_cast<int>(lists->inputs.size());
    const double* w = weights_.row(node);
    // Active weights are rare (under 2% after training): compare a chunk
    // at a time and look at single weights only where one is active.
    int i = 0;
    for (; i + kChunk <= in_dim_; i += kChunk) {
      const Lanes half = {0.5, 0.5};
      auto any = LoadLanes(w + i) > half;
      for (int k = 2; k < kChunk; k += 2) any |= LoadLanes(w + i + k) > half;
      if ((any[0] | any[1]) == 0) continue;
      unsigned active = 0;
      for (int k = 0; k < kChunk; ++k) {
        active |= static_cast<unsigned>(w[i + k] > 0.5) << k;
      }
      for (; active != 0; active &= active - 1) {
        lists->inputs.push_back(i + std::countr_zero(active));
      }
    }
    for (; i < in_dim_; ++i) {
      if (w[i] > 0.5) lists->inputs.push_back(i);
    }
  }
  lists->begin[out] = static_cast<int>(lists->inputs.size());
}

void LogicLayer::ForwardPacked(const ActiveLists& active, const uint64_t* x,
                               uint64_t* y) const {
  const int* begin = active.begin.data();
  const int* inputs = active.inputs.data();
  for (int node = 0; node < num_conj_; ++node) {
    uint64_t acc = ~uint64_t{0};
    for (int k = begin[node]; k < begin[node + 1]; ++k) acc &= x[inputs[k]];
    y[node] = acc;
  }
  for (int node = num_conj_; node < out_dim(); ++node) {
    uint64_t acc = 0;
    for (int k = begin[node]; k < begin[node + 1]; ++k) acc |= x[inputs[k]];
    y[node] = acc;
  }
}

Matrix LogicLayer::ForwardDiscrete(const Matrix& x) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  ActiveLists active;
  BuildActiveLists(&active);
  const int out = out_dim();
  Matrix y(x.rows(), out);
  std::vector<uint64_t> xw(in_dim_);
  std::vector<uint64_t> yw(out);
  for (size_t lo = 0; lo < x.rows(); lo += kRecordsPerWord) {
    const size_t n = std::min(kRecordsPerWord, x.rows() - lo);
    PackRows(x, lo, n, xw.data());
    ForwardPacked(active, xw.data(), yw.data());
    for (size_t r = 0; r < n; ++r) {
      double* yr = y.row(lo + r);
      for (int node = 0; node < out; ++node) {
        yr[node] = (yw[node] >> r) & 1 ? 1.0 : 0.0;
      }
    }
  }
  return y;
}

Matrix LogicLayer::Backward(const Matrix& x, const Matrix& y,
                            const Matrix& dy) {
  CTFL_CHECK(x.rows() == y.rows() && y.rows() == dy.rows());
  Matrix dx(x.rows(), in_dim_);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (int node = 0; node < out_dim(); ++node) {
      const double g = dy(r, node);
      if (g == 0.0) continue;
      const bool conj = IsConjNode(node);
      const double prod = conj ? y(r, node) : 1.0 - y(r, node);
      if (prod <= 0.0) continue;
      NodeGradient(conj, g, prod, weights_.row(node), x.row(r), in_dim_,
                   grads_.row(node), 1, dx.row(r));
    }
  }
  return dx;
}

void LogicLayer::BackwardWeights(const Matrix& x, const Matrix& y,
                                 const Matrix& dy) {
  CTFL_CHECK(x.rows() == y.rows() && y.rows() == dy.rows());
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  if (BackwardWeightsByTable(weights_, num_conj_, x, y, dy, &grads_)) return;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (int node = 0; node < out_dim(); ++node) {
      const double g = dy(r, node);
      if (g == 0.0) continue;
      const bool conj = IsConjNode(node);
      const double prod = conj ? y(r, node) : 1.0 - y(r, node);
      if (prod <= 0.0) continue;
      NodeGradient(conj, g, prod, weights_.row(node), x.row(r), in_dim_,
                   grads_.row(node), 1, nullptr);
    }
  }
}

std::vector<int> LogicLayer::ActiveInputs(int node) const {
  std::vector<int> out;
  for (int i = 0; i < in_dim_; ++i) {
    if (weights_(node, i) > 0.5) out.push_back(i);
  }
  return out;
}

}  // namespace ctfl
