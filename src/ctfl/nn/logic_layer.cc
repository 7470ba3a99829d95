#include "ctfl/nn/logic_layer.h"

#include <algorithm>
#include <cmath>

#include "ctfl/util/cpu_features.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {
namespace {

using logic_kernel::FactorTable;
using logic_kernel::kChunk;
using logic_kernel::kEps;
using logic_kernel::SplitRows;

/// Row r of a layer input as the generic loops read it: a Matrix row in
/// place; a packed row unpacked into `scratch`, so the loops see the same
/// doubles, through the same code, on either input.
const double* RowOf(const Matrix& x, size_t r, std::vector<double>*) {
  return x.row(r);
}
const double* RowOf(const PackedRows& x, size_t r,
                    std::vector<double>* scratch) {
  scratch->resize(x.cols());
  UnpackRow(x.row(r), x.cols(), scratch->data());
  return scratch->data();
}

/// The generic per-(row, node) gradient of the continuous form, in the
/// order and with the expressions every kernel must reproduce. Adds
/// g * dy/dw_i to gw[i] and, when `dxr` is non-null, g * dy/dx_i to
/// dxr[i]. `prod` is the node's product term: y for a conjunction, 1 - y
/// for a disjunction.
void NodeGradient(bool conj, double g, double prod, const double* w,
                  const double* xr, int in_dim, double* gw, double* dxr) {
  if (conj) {
    for (int i = 0; i < in_dim; ++i) {
      const double t = std::max(kEps, 1.0 - w[i] * (1.0 - xr[i]));
      const double rest = prod / t;  // product of the other terms, <= 1
      gw[i] += g * (-(1.0 - xr[i]) * rest);
      if (dxr != nullptr) dxr[i] += g * (w[i] * rest);
    }
  } else {
    for (int i = 0; i < in_dim; ++i) {
      const double s = std::max(kEps, 1.0 - w[i] * xr[i]);
      const double rest = prod / s;
      gw[i] += g * (xr[i] * rest);
      if (dxr != nullptr) dxr[i] += g * (w[i] * rest);
    }
  }
}

/// NodeGradient on a packed row, without the input gradient: the units'
/// generic lanes (BackwardJob::node_gradient), which run only for a NaN or
/// infinite upstream gradient or a product outside (0, 1].
void PackedNodeGradient(bool conj, double g, double prod, const double* w,
                        const uint64_t* xr, int in_dim, double* gw) {
  static thread_local std::vector<double> row;
  row.resize(in_dim);
  UnpackRow(xr, in_dim, row.data());
  NodeGradient(conj, g, prod, w, row.data(), in_dim, gw, nullptr);
}

/// Lays out the chunks of layer `w` (out x in, num_conj conjunctions
/// first) and sizes the table; the units fill it chunk by chunk.
void LayoutFactorTable(const Matrix& w, int num_conj, FactorTable* t) {
  const int out = static_cast<int>(w.rows());
  t->in_dim = static_cast<int>(w.cols());
  t->first.clear();
  t->width.clear();
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
}

/// Fills chunk q of the table from `w` through the tier's unit; false when
/// one of its weights is not finite.
bool BuildFactorChunk(const logic_kernel::Units& units, const Matrix& w,
                      int q, FactorTable* t) {
  return units.build_chunk(w.row(t->first[q]), t->in_dim, t->width[q],
                           t->c.data() + t->Offset(q, 0));
}

/// The generic continuous forward of nodes [lo, hi) of layer `w` (num_conj
/// conjunctions first) on `x`, a Matrix or a PackedRows, skipping zero
/// weights.
template <typename Input>
void ForwardNodes(const Matrix& w, int num_conj, const Input& x, int lo,
                  int hi, Matrix* y) {
  const int in_dim = static_cast<int>(w.cols());
  std::vector<double> scratch;
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = RowOf(x, r, &scratch);
    for (int node = lo; node < hi; ++node) {
      const double* wn = w.row(node);
      double prod = 1.0;
      if (node < num_conj) {
        for (int i = 0; i < in_dim; ++i) {
          if (wn[i] == 0.0) continue;
          prod *= std::max(kEps, 1.0 - wn[i] * (1.0 - xr[i]));
        }
        (*y)(r, node) = prod;
      } else {
        for (int i = 0; i < in_dim; ++i) {
          if (wn[i] == 0.0) continue;
          prod *= std::max(kEps, 1.0 - wn[i] * xr[i]);
        }
        (*y)(r, node) = 1.0 - prod;
      }
    }
  }
}

/// Writes kGradientNaN over every NaN of the n doubles at `v`.
void CanonicalizeNaNs(double* v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(v[i])) v[i] = logic_kernel::kGradientNaN;
  }
}

/// The generic backward of nodes [lo, hi) on `x`, a Matrix or a
/// PackedRows: per row, per node ascending, accumulates parameter
/// gradients into `grads` and, when `dx` is non-null, input gradients into
/// `dx`; then writes every NaN of either as kGradientNaN.
template <typename Input>
void BackwardNodes(const Matrix& w, int num_conj, const Input& x,
                   const Matrix& y, const Matrix& dy, int lo, int hi,
                   Matrix* grads, Matrix* dx) {
  const int in_dim = static_cast<int>(w.cols());
  std::vector<double> scratch;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (int node = lo; node < hi; ++node) {
      const double g = dy(r, node);
      if (g == 0.0) continue;
      const bool conj = node < num_conj;
      const double prod = conj ? y(r, node) : 1.0 - y(r, node);
      if (prod <= 0.0) continue;
      NodeGradient(conj, g, prod, w.row(node), RowOf(x, r, &scratch),
                   in_dim, grads->row(node),
                   dx != nullptr ? dx->row(r) : nullptr);
    }
  }
  CanonicalizeNaNs(grads->row(lo), static_cast<size_t>(hi - lo) * in_dim);
  if (dx != nullptr) CanonicalizeNaNs(dx->data(), dx->size());
}

/// Splits the packed `x` into `rows` through the tier's unit, blocks of
/// rows in parallel with up to `threads` threads.
void SplitPackedRows(const logic_kernel::Units& units, const PackedRows& x,
                     int threads, SplitRows* rows) {
  const int in_dim = static_cast<int>(x.cols());
  rows->at_zero.resize(x.rows() * in_dim);
  rows->at_one.resize(x.rows() * in_dim);
  rows->zeros.resize(x.rows());
  constexpr size_t kRowsPerBlock = 8;
  ParallelFor(threads, 0, (x.rows() + kRowsPerBlock - 1) / kRowsPerBlock,
              [&](size_t block) {
                const size_t end =
                    std::min(x.rows(), (block + 1) * kRowsPerBlock);
                units.split_rows(x.row(0), x.words(), in_dim,
                                 block * kRowsPerBlock, end,
                                 rows->at_zero.data(), rows->at_one.data(),
                                 rows->zeros.data());
              });
}

/// The continuous forward of layer `w` (num_conj conjunctions first) on the
/// packed `x` through the factor table. Multiplying by a skipped factor's
/// exact 1.0 would change nothing, so each node multiplies its remaining
/// factors in ascending input order, as the generic loop does. Units of one
/// or two chunks of one kind (two hide the multiply latency) run in
/// parallel, each building its own chunks of the table; a unit holding a
/// non-finite weight runs the generic loop for its nodes instead. The split
/// and the table live in `tables`, whose storage serves the next step.
void ForwardByTable(const Matrix& w, int num_conj, const PackedRows& x,
                    Matrix* y, LogicLayer::StepTables* tables) {
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  const int threads = MatrixThreadsFor(x.rows() * w.rows() * w.cols());
  SplitPackedRows(units, x, threads, &tables->rows);
  LayoutFactorTable(w, num_conj, &tables->table);
  const SplitRows& rows = tables->rows;
  FactorTable& t = tables->table;
  auto unit_width = [&](int q) {
    return q + 1 < t.chunks() && t.conj(q + 1) == t.conj(q) ? 2 : 1;
  };
  std::vector<int> starts;  // first chunk of each unit
  for (int q = 0; q < t.chunks(); q += unit_width(q)) starts.push_back(q);
  auto run_unit = [&](size_t u) {
    const int q = starts[u];
    const int pair = unit_width(q);
    bool finite = true;
    for (int p = 0; p < pair; ++p) {
      finite &= BuildFactorChunk(units, w, q + p, &t);
    }
    if (!finite) {
      ForwardNodes(w, num_conj, x, t.first[q],
                   t.first[q + pair - 1] + t.width[q + pair - 1], y);
      return;
    }
    logic_kernel::ForwardJob job;
    job.table = t.c.data() + t.Offset(q, 0);
    job.chunk_stride = t.Offset(1, 0);
    job.chunks = pair;
    job.conj = t.conj(q);
    job.lists = (job.conj ? rows.at_zero : rows.at_one).data();
    job.zeros = rows.zeros.data();
    job.in_dim = t.in_dim;
    job.rows = x.rows();
    job.y = y->data();
    job.y_stride = y->cols();
    for (int p = 0; p < pair; ++p) {
      job.first[p] = t.first[q + p];
      job.width[p] = t.width[q + p];
    }
    units.forward(job);
  };
  ParallelFor(threads, 0, starts.size(), run_unit);
}

/// Layer 0's weight backward on the packed `x`, accumulating into `grads`:
/// per weight, the sum of its listed rows' terms divided once by its factor
/// (DESIGN.md §16.3), through the tier's masked sums. Node chunks of 8, one
/// kind each, run in parallel, each with its own rows of `grads`; a chunk
/// holding a non-finite weight or a -0.0 gradient runs the generic loop for
/// its nodes instead.
void BackwardWeightsByMasks(const Matrix& w, int num_conj,
                            const PackedRows& x, const Matrix& y,
                            const Matrix& dy, Matrix* grads) {
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  const int threads = MatrixThreadsFor(x.rows() * w.rows() * w.cols());
  const int out = static_cast<int>(w.rows());
  const int conj_chunks = (num_conj + kChunk - 1) / kChunk;
  const size_t chunks = conj_chunks + (out - num_conj + kChunk - 1) / kChunk;
  // Each chunk's terms per row, in a per-thread buffer that keeps its
  // storage from step to step (fresh ones per step cost the fed-score step
  // about 10% in page faults). The calling thread does not re-enter this
  // function before it returns: its ParallelFor runs only this call's
  // chunks.
  static thread_local std::vector<double> storage;
  const size_t terms_size = x.rows() * kChunk;
  // Terms start on a 64-byte line, so one row's chunk is one line.
  storage.resize(chunks * terms_size + kChunk);
  // A pointer, not the thread_local name: helpers run the chunks.
  double* terms = storage.data();
  terms += (64 - reinterpret_cast<uintptr_t>(terms) % 64) % 64 / sizeof(double);
  auto run_chunk = [&](size_t q) {
    const int c = static_cast<int>(q);
    const int lo =
        c < conj_chunks ? c * kChunk : num_conj + (c - conj_chunks) * kChunk;
    const int hi = std::min(lo + kChunk, lo < num_conj ? num_conj : out);
    logic_kernel::BackwardJob job;
    job.conj = lo < num_conj;
    job.first = lo;
    job.width = hi - lo;
    job.in_dim = static_cast<int>(w.cols());
    job.rows = x.rows();
    job.x = x.row(0);
    job.x_words = x.words();
    job.y = y.data();
    job.dy = dy.data();
    job.out_dim = y.cols();
    job.w = w.data();
    job.grads = grads->data();
    job.terms = terms + q * terms_size;
    job.node_gradient = PackedNodeGradient;
    if (!units.backward(job)) {
      BackwardNodes(w, num_conj, x, y, dy, lo, hi, grads, nullptr);
    }
  };
  ParallelFor(threads, 0, chunks, run_chunk);
}

}  // namespace

bool PackRows(const Matrix& x, size_t lo, size_t n, uint64_t* words) {
  CTFL_CHECK(n <= kRecordsPerWord && lo + n <= x.rows());
  const size_t cols = x.cols();
  std::fill(words, words + cols, uint64_t{0});
  // An element is 0.0 or 1.0 exactly when it equals its bit.
  uint64_t odd = 0;
  for (size_t r = 0; r < n; ++r) {
    const double* xr = x.row(lo + r);
    const uint64_t bit = uint64_t{1} << r;
    for (size_t i = 0; i < cols; ++i) {
      const bool set = xr[i] >= 0.5;
      words[i] |= set ? bit : 0;
      odd |= xr[i] != (set ? 1.0 : 0.0);
    }
  }
  return odd == 0;
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

Matrix LogicLayer::ForwardContinuous(const Matrix& x,
                                     StepTables* tables) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  PackedRows packed;
  if (PackBinary(x, &packed)) return ForwardContinuous(packed, tables);
  Matrix y(x.rows(), out_dim());
  ForwardNodes(weights_, num_conj_, x, 0, out_dim(), &y);
  return y;
}

Matrix LogicLayer::ForwardContinuous(const PackedRows& x,
                                     StepTables* tables) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  Matrix y(x.rows(), out_dim());
  StepTables own;
  ForwardByTable(weights_, num_conj_, x, &y,
                 tables != nullptr ? tables : &own);
  return y;
}

void LogicLayer::BuildActiveLists(ActiveLists* lists) const {
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  const int out = out_dim();
  lists->begin.resize(static_cast<size_t>(out) + 1);
  size_t count = 0;
  for (int node = 0; node < out; ++node) {
    lists->begin[node] = static_cast<int>(count);
    // Room for every input of the node; the list keeps only the active.
    if (lists->inputs.size() < count + in_dim_) {
      lists->inputs.resize(count + in_dim_);
    }
    count += units.active_inputs(weights_.row(node), in_dim_,
                                 lists->inputs.data() + count);
  }
  lists->begin[out] = static_cast<int>(count);
  lists->inputs.resize(count);
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
  BackwardNodes(weights_, num_conj_, x, y, dy, 0, out_dim(), &grads_, &dx);
  return dx;
}

void LogicLayer::BackwardWeights(const Matrix& x, const Matrix& y,
                                 const Matrix& dy) {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  PackedRows packed;
  if (PackBinary(x, &packed)) {
    BackwardWeights(packed, y, dy);
    return;
  }
  CTFL_CHECK(x.rows() == y.rows() && y.rows() == dy.rows());
  BackwardNodes(weights_, num_conj_, x, y, dy, 0, out_dim(), &grads_,
                nullptr);
}

void LogicLayer::BackwardWeights(const PackedRows& x, const Matrix& y,
                                 const Matrix& dy) {
  CTFL_CHECK(x.rows() == y.rows() && y.rows() == dy.rows());
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  BackwardWeightsByMasks(weights_, num_conj_, x, y, dy, &grads_);
}

std::vector<int> LogicLayer::ActiveInputs(int node) const {
  std::vector<int> out;
  for (int i = 0; i < in_dim_; ++i) {
    if (weights_(node, i) > 0.5) out.push_back(i);
  }
  return out;
}

}  // namespace ctfl
