#include "ctfl/nn/logic_layer.h"

#include <algorithm>
#include <cmath>

#include "ctfl/util/cpu_features.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {
namespace {

using logic_kernel::GroupCodes;
using logic_kernel::GroupKind;
using logic_kernel::InputGroup;
using logic_kernel::kChunk;
using logic_kernel::kEps;

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

/// The code of a row whose bits of `group` are `bits` (GroupKind), the
/// group's inputs from bit 0 and `mask` its size low bits; -1 when they are
/// no code of the group. A prefix's bits are 2^p - 1, a suffix's complement
/// within the mask is, and a one-hot group's bits hold at most one 1: a few
/// integer operations with no branch on the bits, which a step reads for
/// every (row, group).
int CodeOf(const InputGroup& group, uint64_t bits, uint64_t mask) {
  switch (group.kind) {
    case GroupKind::kPrefix:
      return (bits & (bits + 1)) == 0 ? __builtin_popcountll(bits) : -1;
    case GroupKind::kSuffix: {
      const uint64_t clear = ~bits & mask;
      return (clear & (clear + 1)) == 0 ? __builtin_popcountll(clear) : -1;
    }
    case GroupKind::kOneHot:
      if ((bits & (bits - 1)) != 0) return -1;
      return bits == 0 ? group.size : __builtin_ctzll(bits);
  }
  return -1;
}

/// CodeOf for a group wider than 64 inputs, from the count of its set
/// inputs and the lowest and the highest of them, read word by word.
int WideCodeOf(const InputGroup& group, const uint64_t* row) {
  int ones = 0;
  int lowest = -1;
  int highest = -1;
  for (int i = group.first, end = group.first + group.size; i < end;) {
    const int shift = i % 64;
    const int n = std::min(64 - shift, end - i);
    uint64_t bits = row[i / 64] >> shift;
    if (n < 64) bits &= (uint64_t{1} << n) - 1;
    if (bits != 0) {
      if (lowest < 0) lowest = i - group.first + __builtin_ctzll(bits);
      highest = i - group.first + 63 - __builtin_clzll(bits);
      ones += __builtin_popcountll(bits);
    }
    i += n;
  }
  switch (group.kind) {
    case GroupKind::kPrefix:
      return ones == 0 || highest == ones - 1 ? ones : -1;
    case GroupKind::kSuffix:
      return ones == 0 || lowest == group.size - ones ? group.size - ones
                                                      : -1;
    case GroupKind::kOneHot:
      return ones == 0 ? group.size : ones == 1 ? lowest : -1;
  }
  return -1;
}

/// Numbers the entries of `groups` and writes every row's entry per group;
/// false, with -1 for the codes it could not read, when some row's bits are
/// no code of their group.
bool FillCodes(const PackedRows& x, GroupCodes* out) {
  std::vector<InputGroup>& groups = out->groups;
  out->entries = 0;
  for (InputGroup& group : groups) {
    group.entry = out->entries;
    out->entries += group.size + 1;
  }
  const size_t num_groups = groups.size();
  out->codes.resize(x.rows() * num_groups);
  bool coded = true;
  for (size_t g = 0; g < num_groups; ++g) {
    const InputGroup& group = groups[g];
    int32_t* codes = out->codes.data() + g;
    if (group.size > 64) {
      for (size_t r = 0; r < x.rows(); ++r) {
        const int code = WideCodeOf(group, x.row(r));
        coded &= code >= 0;
        codes[r * num_groups] = code < 0 ? -1 : group.entry + code;
      }
      continue;
    }
    // Within 64 bits: one shift of the group's word, or of two.
    const size_t word = static_cast<size_t>(group.first / 64);
    const int shift = group.first % 64;
    const bool straddles = shift + group.size > 64;
    const uint64_t mask =
        group.size == 64 ? ~uint64_t{0} : (uint64_t{1} << group.size) - 1;
    for (size_t r = 0; r < x.rows(); ++r) {
      const uint64_t* row = x.row(r) + word;
      uint64_t bits = row[0] >> shift;
      if (straddles) bits |= row[1] << (64 - shift);
      const int code = CodeOf(group, bits & mask, mask);
      coded &= code >= 0;
      codes[r * num_groups] = code < 0 ? -1 : group.entry + code;
    }
  }
  return coded;
}

/// The codes of the packed batch `x` under `layout` (DESIGN.md §16.4): a
/// group that some row does not code is taken as singletons for the batch.
void BuildGroupCodes(const std::vector<InputGroup>& layout,
                     const PackedRows& x, GroupCodes* out) {
  out->groups = layout;
  if (FillCodes(x, out)) return;
  const size_t num_groups = layout.size();
  std::vector<bool> broken(num_groups, false);
  for (size_t k = 0; k < out->codes.size(); ++k) {
    if (out->codes[k] < 0) broken[k % num_groups] = true;
  }
  out->groups.clear();
  for (size_t g = 0; g < num_groups; ++g) {
    if (!broken[g]) {
      out->groups.push_back(layout[g]);
      continue;
    }
    for (int i = 0; i < layout[g].size; ++i) {
      InputGroup single;
      single.first = layout[g].first + i;
      out->groups.push_back(single);
    }
  }
  CTFL_CHECK(FillCodes(x, out));
}

/// `n` doubles of the calling thread's scratch, starting on a 64-byte line,
/// in storage kept from call to call (fresh buffers per step cost the
/// fed-score step about 10% in page faults). A thread holds it only while
/// it runs one forward unit or backward chunk, neither of which starts a
/// parallel section, so no other use of it can interleave.
double* ThreadScratch(size_t n) {
  static thread_local std::vector<double> storage;
  if (storage.size() < n + kChunk) storage.resize(n + kChunk);
  double* p = storage.data();
  return p + (64 - reinterpret_cast<uintptr_t>(p) % 64) % 64 / sizeof(double);
}

/// The node chunks of a layer of `out` nodes, `num_conj` conjunctions
/// first: 8 nodes each, never mixing the two kinds.
struct Chunks {
  Chunks(int num_conj, int out)
      : num_conj(num_conj),
        out(out),
        conj((num_conj + kChunk - 1) / kChunk),
        count(conj + (out - num_conj + kChunk - 1) / kChunk) {}
  int First(int q) const {
    return q < conj ? q * kChunk : num_conj + (q - conj) * kChunk;
  }
  int Width(int q) const {
    return std::min(kChunk, (q < conj ? num_conj : out) - First(q));
  }
  int num_conj;
  int out;
  int conj;   ///< conjunction chunks
  int count;  ///< all chunks
};

/// The continuous forward of layer `w` (num_conj conjunctions first) on the
/// packed `x`, whose codes are `codes`. Units of one or two chunks of one
/// kind (two hide the multiply latency) run in parallel, each building its
/// own factors and entries in its thread's scratch; a chunk holding a
/// non-finite weight runs the generic loop for its nodes instead.
void ForwardByCodes(const Matrix& w, int num_conj, const PackedRows& x,
                    const GroupCodes& codes, Matrix* y) {
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  const int threads = MatrixThreadsFor(x.rows() * w.rows() * w.cols());
  const int in_dim = static_cast<int>(w.cols());
  const Chunks chunks(num_conj, static_cast<int>(w.rows()));
  // Units pair the chunks of each kind: unit u starts at chunk Start(u).
  const int conj_units = (chunks.conj + 1) / 2;
  const int units_count =
      conj_units + (chunks.count - chunks.conj + 1) / 2;
  auto start = [&](int u) {
    return u < conj_units ? 2 * u : chunks.conj + 2 * (u - conj_units);
  };
  const size_t factor_size = static_cast<size_t>(in_dim) * kChunk;
  const size_t entry_size = static_cast<size_t>(codes.entries) * kChunk;
  auto run_unit = [&](size_t u) {
    const int q = start(static_cast<int>(u));
    const int pair =
        q + 1 < (q < chunks.conj ? chunks.conj : chunks.count) ? 2 : 1;
    double* factors = ThreadScratch(pair * (factor_size + entry_size));
    double* entries = factors + pair * factor_size;
    bool finite[2] = {true, true};
    for (int p = 0; p < pair; ++p) {
      finite[p] = units.build_chunk(w.row(chunks.First(q + p)), in_dim,
                                    chunks.Width(q + p),
                                    factors + p * factor_size);
    }
    auto run = [&](int q0, int n, const double* f) {
      logic_kernel::ForwardJob job;
      job.factors = f;
      job.entries = entries;
      job.chunks = n;
      job.conj = q0 < chunks.conj;
      job.in_dim = in_dim;
      job.groups = codes.groups.data();
      job.num_groups = static_cast<int>(codes.groups.size());
      job.entries_per_chunk = codes.entries;
      job.codes = codes.codes.data();
      job.rows = x.rows();
      job.y = y->data();
      job.y_stride = y->cols();
      for (int p = 0; p < n; ++p) {
        job.first[p] = chunks.First(q0 + p);
        job.width[p] = chunks.Width(q0 + p);
      }
      units.forward(job);
    };
    if (finite[0] && finite[1]) {
      run(q, pair, factors);
      return;
    }
    for (int p = 0; p < pair; ++p) {
      if (finite[p]) {
        run(q + p, 1, factors + p * factor_size);
      } else {
        const int lo = chunks.First(q + p);
        ForwardNodes(w, num_conj, x, lo, lo + chunks.Width(q + p), y);
      }
    }
  };
  ParallelFor(threads, 0, units_count, run_unit);
}

/// Layer 0's weight backward on the packed `x`, whose codes are `codes`,
/// accumulating into `grads`: per weight, its listed rows' terms summed by
/// (group, code) and divided once by its factor (DESIGN.md §16.3). Node
/// chunks of 8, one kind each, run in parallel, each with its own rows of
/// `grads`; a chunk holding a non-finite weight or a -0.0 gradient runs
/// the generic loop for its nodes instead.
void BackwardWeightsByBuckets(const Matrix& w, int num_conj,
                              const PackedRows& x, const GroupCodes& codes,
                              const Matrix& y, const Matrix& dy,
                              Matrix* grads) {
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  const int threads = MatrixThreadsFor(x.rows() * w.rows() * w.cols());
  const Chunks chunks(num_conj, static_cast<int>(w.rows()));
  const size_t scratch =
      (x.rows() + codes.entries + w.cols() + kChunk) * kChunk;
  auto run_chunk = [&](size_t q) {
    const int c = static_cast<int>(q);
    logic_kernel::BackwardJob job;
    job.conj = c < chunks.conj;
    job.first = chunks.First(c);
    job.width = chunks.Width(c);
    job.in_dim = static_cast<int>(w.cols());
    job.rows = x.rows();
    job.x = x.row(0);
    job.x_words = x.words();
    job.groups = codes.groups.data();
    job.num_groups = static_cast<int>(codes.groups.size());
    job.entries = codes.entries;
    job.codes = codes.codes.data();
    job.y = y.data();
    job.dy = dy.data();
    job.out_dim = y.cols();
    job.w = w.data();
    job.grads = grads->data();
    job.scratch = ThreadScratch(scratch);
    job.node_gradient = PackedNodeGradient;
    if (!units.backward(job)) {
      BackwardNodes(w, num_conj, x, y, dy, job.first, job.first + job.width,
                    grads, nullptr);
    }
  };
  ParallelFor(threads, 0, chunks.count, run_chunk);
}

}  // namespace

LogicLayer::LogicLayer(int in_dim, int num_conj, int num_disj)
    : in_dim_(in_dim),
      num_conj_(num_conj),
      num_disj_(num_disj),
      weights_(num_conj + num_disj, in_dim),
      grads_(num_conj + num_disj, in_dim),
      layout_(in_dim) {
  CTFL_CHECK(in_dim > 0);
  CTFL_CHECK(num_conj >= 0 && num_disj >= 0 && num_conj + num_disj > 0);
  for (int i = 0; i < in_dim; ++i) layout_[i].first = i;
}

void LogicLayer::SetLayout(std::vector<InputGroup> layout) {
  int next = 0;
  for (const InputGroup& group : layout) {
    CTFL_CHECK(group.first == next && group.size >= 1);
    next += group.size;
  }
  CTFL_CHECK(next == in_dim_);
  layout_ = std::move(layout);
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
                                     GroupCodes* codes) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  PackedRows packed;
  if (PackBinary(x, &packed)) return ForwardContinuous(packed, codes);
  Matrix y(x.rows(), out_dim());
  ForwardNodes(weights_, num_conj_, x, 0, out_dim(), &y);
  return y;
}

Matrix LogicLayer::ForwardContinuous(const PackedRows& x,
                                     GroupCodes* codes) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  Matrix y(x.rows(), out_dim());
  GroupCodes own;
  GroupCodes& c = codes != nullptr ? *codes : own;
  BuildGroupCodes(layout_, x, &c);
  ForwardByCodes(weights_, num_conj_, x, c, &y);
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

Matrix LogicLayer::Backward(const Matrix& x, const Matrix& y,
                            const Matrix& dy) {
  CTFL_CHECK(x.rows() == y.rows() && y.rows() == dy.rows());
  Matrix dx(x.rows(), in_dim_);
  BackwardNodes(weights_, num_conj_, x, y, dy, 0, out_dim(), &grads_, &dx);
  return dx;
}

void LogicLayer::BackwardWeights(const PackedRows& x, const Matrix& y,
                                 const Matrix& dy, const GroupCodes* codes) {
  CTFL_CHECK(x.rows() == y.rows() && y.rows() == dy.rows());
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  GroupCodes own;
  if (codes == nullptr) {
    BuildGroupCodes(layout_, x, &own);
    codes = &own;
  }
  CTFL_CHECK(codes->codes.size() == x.rows() * codes->groups.size());
  BackwardWeightsByBuckets(weights_, num_conj_, x, *codes, y, dy, &grads_);
}

std::vector<int> LogicLayer::ActiveInputs(int node) const {
  std::vector<int> out;
  for (int i = 0; i < in_dim_; ++i) {
    if (weights_(node, i) > 0.5) out.push_back(i);
  }
  return out;
}

}  // namespace ctfl
