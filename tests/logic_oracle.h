#ifndef CTFL_TESTS_LOGIC_ORACLE_H_
#define CTFL_TESTS_LOGIC_ORACLE_H_

// Reference kernels of the logic layer, the vote layer and the optimizer:
// the scalar per-element loops the production kernels replaced (DESIGN.md
// §16), kept as the oracle they must match bit for bit; the factored
// weight gradient a layer with one group per input takes on a binary input
// (§16.3); and the grouped forward and weight gradient of a layer with an
// encoder's input layout (§16.2, §16.3). Each logic-layer kernel takes the
// layer's weights and its conjunction count; `grads` accumulates like
// LogicLayer::grads(), and every gradient that ends NaN holds the one
// quiet NaN.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ctfl/nn/logic_kernel.h"
#include "ctfl/nn/logic_layer.h"
#include "ctfl/nn/matrix.h"

namespace ctfl {
namespace oracle {

inline constexpr double kEps = 1e-8;

/// Writes the quiet NaN over every NaN of `m`: where two NaNs meet, IEEE
/// 754 leaves open whose bits a sum keeps.
inline void CanonicalizeNaNs(Matrix* m) {
  for (size_t k = 0; k < m->size(); ++k) {
    if (std::isnan(m->data()[k])) {
      m->data()[k] = std::numeric_limits<double>::quiet_NaN();
    }
  }
}

/// One (row, node)'s terms of the continuous backward: adds g * dy/dw_i to
/// gw[i] and, when `dxr` is non-null, g * dy/dx_i to dxr[i]. `prod` is y
/// for a conjunction and 1 - y for a disjunction.
inline void AddRowTerms(bool conj, double g, double prod, const double* w,
                        const double* xr, int in_dim, double* gw,
                        double* dxr) {
  for (int i = 0; i < in_dim; ++i) {
    double rest;
    if (conj) {
      const double t = std::max(kEps, 1.0 - w[i] * (1.0 - xr[i]));
      rest = prod / t;  // product of the other terms, <= 1
      gw[i] += g * (-(1.0 - xr[i]) * rest);
    } else {
      const double s = std::max(kEps, 1.0 - w[i] * xr[i]);
      rest = prod / s;
      gw[i] += g * (xr[i] * rest);
    }
    if (dxr != nullptr) dxr[i] += g * (w[i] * rest);
  }
}

inline Matrix ForwardContinuous(const Matrix& weights, int num_conj,
                                const Matrix& x) {
  const int out_dim = static_cast<int>(weights.rows());
  const int in_dim = static_cast<int>(weights.cols());
  Matrix y(x.rows(), out_dim);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    for (int node = 0; node < out_dim; ++node) {
      const double* w = weights.row(node);
      double prod = 1.0;
      if (node < num_conj) {
        for (int i = 0; i < in_dim; ++i) {
          if (w[i] == 0.0) continue;
          prod *= std::max(kEps, 1.0 - w[i] * (1.0 - xr[i]));
        }
        y(r, node) = prod;
      } else {
        for (int i = 0; i < in_dim; ++i) {
          if (w[i] == 0.0) continue;
          prod *= std::max(kEps, 1.0 - w[i] * xr[i]);
        }
        y(r, node) = 1.0 - prod;
      }
    }
  }
  return y;
}

inline Matrix ForwardDiscrete(const Matrix& weights, int num_conj,
                              const Matrix& x) {
  const int out_dim = static_cast<int>(weights.rows());
  const int in_dim = static_cast<int>(weights.cols());
  Matrix y(x.rows(), out_dim);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    for (int node = 0; node < out_dim; ++node) {
      const double* w = weights.row(node);
      if (node < num_conj) {
        double out = 1.0;
        for (int i = 0; i < in_dim; ++i) {
          if (w[i] > 0.5 && xr[i] < 0.5) {
            out = 0.0;
            break;
          }
        }
        y(r, node) = out;
      } else {
        double out = 0.0;
        for (int i = 0; i < in_dim; ++i) {
          if (w[i] > 0.5 && xr[i] >= 0.5) {
            out = 1.0;
            break;
          }
        }
        y(r, node) = out;
      }
    }
  }
  return y;
}

/// Accumulates into `grads` and returns dx: per row, per node, the terms
/// of every input, skipping g == 0 and prod <= 0.
inline Matrix Backward(const Matrix& weights, int num_conj, const Matrix& x,
                       const Matrix& y, const Matrix& dy, Matrix* grads) {
  const int out_dim = static_cast<int>(weights.rows());
  const int in_dim = static_cast<int>(weights.cols());
  Matrix dx(x.rows(), in_dim);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (int node = 0; node < out_dim; ++node) {
      const double g = dy(r, node);
      if (g == 0.0) continue;
      const bool conj = node < num_conj;
      const double prod = conj ? y(r, node) : 1.0 - y(r, node);
      if (prod <= 0.0) continue;
      AddRowTerms(conj, g, prod, weights.row(node), x.row(r), in_dim,
                  grads->row(node), dx.row(r));
    }
  }
  CanonicalizeNaNs(grads);
  CanonicalizeNaNs(&dx);
  return dx;
}

/// Whether node `node`'s chunk of 8 (conjunctions first, then
/// disjunctions, each from its first node) holds a non-finite weight or,
/// when `start` is non-null, a starting gradient of -0.0.
inline bool ChunkFallsBack(const Matrix& weights, int num_conj, int node,
                           const Matrix* start) {
  constexpr int kChunkNodes = 8;
  const int out_dim = static_cast<int>(weights.rows());
  const bool conj = node < num_conj;
  const int base = conj ? 0 : num_conj;
  const int first = base + (node - base) / kChunkNodes * kChunkNodes;
  const int last = std::min(first + kChunkNodes, conj ? num_conj : out_dim);
  bool falls_back = false;
  for (int m = first; m < last; ++m) {
    for (size_t i = 0; i < weights.cols(); ++i) {
      falls_back |= !std::isfinite(weights(m, i));
      if (start != nullptr) {
        falls_back |= (*start)(m, i) == 0.0 && std::signbit((*start)(m, i));
      }
    }
  }
  return falls_back;
}

/// The weight gradients on a binary input (every x exactly 0.0 or 1.0),
/// factored as layer 0 takes them, accumulated into `grads`. The weight of
/// input i and node k gains S / c, one division after the rows: c =
/// max(kEps, 1 - w) is the factor the node multiplies where it lists i (x
/// = 0 for a conjunction, x = 1 for a disjunction), and S sums, from +0.0
/// in ascending row order, g' * prod over the rows that list i, with g' =
/// -g for a conjunction. Only rows with a finite, nonzero g and a product
/// in (0, 1] enter S; the others add Backward's per-row terms as they come
/// (none where g == 0 or prod <= 0). A node whose chunk of 8 (conjunctions
/// first, then disjunctions) holds a non-finite weight or a starting
/// gradient of -0.0 takes Backward's per-row loop for every row.
inline void BackwardWeightsFactored(const Matrix& weights, int num_conj,
                                    const Matrix& x, const Matrix& y,
                                    const Matrix& dy, Matrix* grads) {
  const int out_dim = static_cast<int>(weights.rows());
  const int in_dim = static_cast<int>(weights.cols());
  const Matrix start = *grads;
  std::vector<double> sums(in_dim);
  for (int node = 0; node < out_dim; ++node) {
    const bool conj = node < num_conj;
    const bool per_row = ChunkFallsBack(weights, num_conj, node, &start);
    const double* w = weights.row(node);
    double* gw = grads->row(node);
    std::fill(sums.begin(), sums.end(), 0.0);
    for (size_t r = 0; r < x.rows(); ++r) {
      const double g = dy(r, node);
      const double prod = conj ? y(r, node) : 1.0 - y(r, node);
      if (g == 0.0 || prod <= 0.0) continue;
      if (!per_row && std::isfinite(g) && prod <= 1.0) {
        const double term = (conj ? -g : g) * prod;
        for (int i = 0; i < in_dim; ++i) {
          if (x(r, i) == (conj ? 0.0 : 1.0)) sums[i] += term;
        }
      } else {
        AddRowTerms(conj, g, prod, w, x.row(r), in_dim, gw, nullptr);
      }
    }
    if (per_row) continue;
    for (int i = 0; i < in_dim; ++i) {
      gw[i] += sums[i] / std::max(kEps, 1.0 - w[i]);
    }
  }
  CanonicalizeNaNs(grads);
}

// ---- Grouped layer 0 --------------------------------------------------------

using logic_kernel::GroupKind;
using logic_kernel::InputGroup;

/// The code of row `xr` (every element 0.0 or 1.0) in `group`, or -1 when
/// its bits are none: a prefix sets inputs [0, p) (code p), a suffix [s,
/// size) (code s), a one-hot group input c alone (code c) or none (code
/// size).
inline int GroupCode(const InputGroup& group, const double* xr) {
  const int n = group.size;
  int ones = 0;
  int only = n;
  for (int j = 0; j < n; ++j) {
    if (xr[group.first + j] == 1.0) {
      ++ones;
      only = j;
    }
  }
  if (group.kind == GroupKind::kOneHot) return ones <= 1 ? only : -1;
  const int code = group.kind == GroupKind::kPrefix ? ones : n - ones;
  for (int j = 0; j < n; ++j) {
    const bool set = group.kind == GroupKind::kPrefix ? j < code : j >= code;
    if ((xr[group.first + j] == 1.0) != set) return -1;
  }
  return code;
}

/// A binary batch under a layout: the groups it keeps (a group some row
/// does not code becomes singletons, kPrefix groups of size 1) and each
/// row's code per group. An empty layout makes every input a singleton.
struct CodedBatch {
  std::vector<InputGroup> groups;
  std::vector<std::vector<int>> codes;  ///< [row][group]
};

inline CodedBatch CodeBatch(const std::vector<InputGroup>& layout,
                            const Matrix& x) {
  std::vector<InputGroup> given = layout;
  if (given.empty()) {
    given.resize(x.cols());
    for (size_t i = 0; i < x.cols(); ++i) given[i].first = static_cast<int>(i);
  }
  CodedBatch out;
  for (const InputGroup& group : given) {
    bool coded = true;
    for (size_t r = 0; r < x.rows(); ++r) {
      coded &= GroupCode(group, x.row(r)) >= 0;
    }
    if (coded) {
      out.groups.push_back(group);
      continue;
    }
    for (int j = 0; j < group.size; ++j) {
      InputGroup single;
      single.first = group.first + j;
      out.groups.push_back(single);
    }
  }
  out.codes.assign(x.rows(), std::vector<int>(out.groups.size()));
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t g = 0; g < out.groups.size(); ++g) {
      out.codes[r][g] = GroupCode(out.groups[g], x.row(r));
    }
  }
  return out;
}

/// The product of the factors f (one group's, c = max(kEps, 1 - w)) that a
/// row of `code` multiplies: its inputs at 0 for a conjunction, at 1 for a
/// disjunction. With Lo(p) = ((1 * f_0) * f_1) * ... * f_{p-1} and Hi(p) =
/// f_p * (f_{p+1} * (... * (f_{n-1} * 1))): a prefix's conjunction and a
/// suffix's disjunction take Hi(code), the other two Lo(code); a one-hot
/// conjunction takes Lo(c) * Hi(c + 1), or Lo(n) for none, and a one-hot
/// disjunction f_c, or 1 for none.
inline double GroupEntry(GroupKind kind, bool conj,
                         const std::vector<double>& f, int code) {
  const int n = static_cast<int>(f.size());
  auto lo = [&](int p) {
    double v = 1.0;
    for (int j = 0; j < p; ++j) v = v * f[j];
    return v;
  };
  auto hi = [&](int p) {
    double v = 1.0;
    for (int j = n - 1; j >= p; --j) v = f[j] * v;
    return v;
  };
  switch (kind) {
    case GroupKind::kOneHot:
      if (!conj) return code < n ? f[code] : 1.0;
      return code < n ? lo(code) * hi(code + 1) : lo(n);
    case GroupKind::kPrefix:
      return conj ? hi(code) : lo(code);
    case GroupKind::kSuffix:
      return conj ? lo(code) : hi(code);
  }
  return 0.0;
}

/// The factors of `group` for one node's weights `w`.
inline std::vector<double> GroupFactors(const InputGroup& group,
                                        const double* w) {
  std::vector<double> f(group.size);
  for (int j = 0; j < group.size; ++j) {
    f[j] = std::max(kEps, 1.0 - w[group.first + j]);
  }
  return f;
}

/// The continuous forward of a layer with input `layout` on a binary `x`:
/// each (row, node) multiplies from 1.0 its groups' entries (GroupEntry) in
/// ascending group order; a node whose chunk holds a non-finite weight
/// takes ForwardContinuous's per-input loop instead.
inline Matrix ForwardGrouped(const Matrix& weights, int num_conj,
                             const std::vector<InputGroup>& layout,
                             const Matrix& x) {
  Matrix y = ForwardContinuous(weights, num_conj, x);
  const CodedBatch batch = CodeBatch(layout, x);
  for (size_t node = 0; node < weights.rows(); ++node) {
    const int k = static_cast<int>(node);
    if (ChunkFallsBack(weights, num_conj, k, nullptr)) continue;
    const bool conj = k < num_conj;
    for (size_t r = 0; r < x.rows(); ++r) {
      double prod = 1.0;
      for (size_t g = 0; g < batch.groups.size(); ++g) {
        const InputGroup& group = batch.groups[g];
        prod = prod * GroupEntry(group.kind, conj,
                                 GroupFactors(group, weights.row(node)),
                                 batch.codes[r][g]);
      }
      y(r, node) = conj ? prod : 1.0 - prod;
    }
  }
  return y;
}

/// Input j's sum over the rows that list it, from its group's buckets b
/// (one per code, rows summed ascending from +0.0). With Up(j) = ((+0 +
/// b_0) + b_1) + ... + b_{j-1} and Down(j) = b_j + (b_{j+1} + (... + (b_n
/// + +0))): a prefix's conjunction and a suffix's disjunction list input j
/// for the codes up to j, Up(j + 1), the other two for the codes above,
/// Down(j + 1); a one-hot conjunction for every code but j, Up(j) +
/// Down(j + 1), and a one-hot disjunction for code j alone, b_j.
inline double GroupSum(GroupKind kind, bool conj, const std::vector<double>& b,
                       int j) {
  const int n = static_cast<int>(b.size()) - 1;
  auto up = [&](int p) {
    double v = 0.0;
    for (int c = 0; c < p; ++c) v = v + b[c];
    return v;
  };
  auto down = [&](int p) {
    double v = 0.0;
    for (int c = n; c >= p; --c) v = b[c] + v;
    return v;
  };
  switch (kind) {
    case GroupKind::kOneHot:
      return conj ? up(j) + down(j + 1) : b[j];
    case GroupKind::kPrefix:
      return conj ? up(j + 1) : down(j + 1);
    case GroupKind::kSuffix:
      return conj ? down(j + 1) : up(j + 1);
  }
  return 0.0;
}

/// The weight gradients of a layer with input `layout` on a binary `x`,
/// accumulated into `grads`: BackwardWeightsFactored's expression with each
/// input's sum read off its group's buckets. A row with a finite, nonzero
/// g and a product in (0, 1] adds its term g' * prod (g' = -g for a
/// conjunction) to the bucket of its code in every group, rows ascending
/// from +0.0; the other rows add Backward's per-row terms as they come
/// (none where g == 0 or prod <= 0). Then each weight gains GroupSum / c,
/// c = max(kEps, 1 - w). A node whose chunk holds a non-finite weight or a
/// starting gradient of -0.0 takes Backward's per-row loop for every row.
inline void BackwardWeightsGrouped(const Matrix& weights, int num_conj,
                                   const std::vector<InputGroup>& layout,
                                   const Matrix& x, const Matrix& y,
                                   const Matrix& dy, Matrix* grads) {
  const int in_dim = static_cast<int>(weights.cols());
  const Matrix start = *grads;
  const CodedBatch batch = CodeBatch(layout, x);
  for (size_t node = 0; node < weights.rows(); ++node) {
    const int k = static_cast<int>(node);
    const bool conj = k < num_conj;
    const bool per_row = ChunkFallsBack(weights, num_conj, k, &start);
    const double* w = weights.row(node);
    double* gw = grads->row(node);
    std::vector<std::vector<double>> buckets(batch.groups.size());
    for (size_t g = 0; g < batch.groups.size(); ++g) {
      buckets[g].assign(batch.groups[g].size + 1, 0.0);
    }
    for (size_t r = 0; r < x.rows(); ++r) {
      const double g = dy(r, node);
      const double prod = conj ? y(r, node) : 1.0 - y(r, node);
      if (g == 0.0 || prod <= 0.0) continue;
      if (!per_row && std::isfinite(g) && prod <= 1.0) {
        const double term = (conj ? -g : g) * prod;
        for (size_t group = 0; group < batch.groups.size(); ++group) {
          double& b = buckets[group][batch.codes[r][group]];
          b = b + term;
        }
      } else {
        AddRowTerms(conj, g, prod, w, x.row(r), in_dim, gw, nullptr);
      }
    }
    if (per_row) continue;
    for (size_t g = 0; g < batch.groups.size(); ++g) {
      const InputGroup& group = batch.groups[g];
      for (int j = 0; j < group.size; ++j) {
        const int i = group.first + j;
        gw[i] += GroupSum(group.kind, conj, buckets[g], j) /
                 std::max(kEps, 1.0 - w[i]);
      }
    }
  }
  CanonicalizeNaNs(grads);
}

/// The vote layer's logits (batch x classes): per row and class, the dense
/// product of the rule vector and the class's weights, terms in ascending
/// k from 0.0, plus the bias.
inline Matrix VoteForward(const Matrix& weights, const Matrix& bias,
                          const Matrix& rules) {
  Matrix logits(rules.rows(), weights.rows());
  for (size_t r = 0; r < rules.rows(); ++r) {
    for (size_t c = 0; c < weights.rows(); ++c) {
      double sum = 0.0;
      for (size_t k = 0; k < rules.cols(); ++k) {
        sum += rules(r, k) * weights(c, k);
      }
      logits(r, c) = sum + bias(0, c);
    }
  }
  return logits;
}

/// The vote layer's backward: accumulates dlogits^T * rules (each element
/// summed over rows from 0.0, zero dlogits skipped, then added) into
/// `weight_grads` and the column sums of dlogits into `bias_grads`; returns
/// the rule gradient dlogits * weights.
inline Matrix VoteBackward(const Matrix& weights, const Matrix& rules,
                           const Matrix& dlogits, Matrix* weight_grads,
                           Matrix* bias_grads) {
  const size_t classes = weights.rows();
  for (size_t c = 0; c < classes; ++c) {
    for (size_t k = 0; k < rules.cols(); ++k) {
      double sum = 0.0;
      for (size_t r = 0; r < rules.rows(); ++r) {
        if (dlogits(r, c) == 0.0) continue;
        sum += dlogits(r, c) * rules(r, k);
      }
      (*weight_grads)(c, k) += sum;
    }
  }
  for (size_t r = 0; r < dlogits.rows(); ++r) {
    for (size_t c = 0; c < classes; ++c) (*bias_grads)(0, c) += dlogits(r, c);
  }
  Matrix drules(rules.rows(), rules.cols());
  for (size_t r = 0; r < rules.rows(); ++r) {
    for (size_t k = 0; k < rules.cols(); ++k) {
      double sum = 0.0;
      for (size_t c = 0; c < classes; ++c) {
        if (dlogits(r, c) == 0.0) continue;
        sum += dlogits(r, c) * weights(c, k);
      }
      drules(r, k) = sum;
    }
  }
  return drules;
}

/// One Adam update of `p` (AdamOptimizer::Step on one slot, serial), with
/// its moments `m` and `v` and step count `t` (already incremented).
inline void AdamStep(double lr, double beta1, double beta2, double eps, int t,
                     const Matrix& grad, Matrix* m, Matrix* v, Matrix* p) {
  const double bc1 = 1.0 - std::pow(beta1, t);
  const double bc2 = 1.0 - std::pow(beta2, t);
  const double* g = grad.data();
  for (size_t k = 0; k < p->size(); ++k) {
    const double gk = g[k];
    m->data()[k] = beta1 * m->data()[k] + (1.0 - beta1) * gk;
    v->data()[k] = beta2 * v->data()[k] + (1.0 - beta2) * gk * gk;
    const double mhat = m->data()[k] / bc1;
    const double vhat = v->data()[k] / bc2;
    p->data()[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace oracle

/// The layer's bit-packed discrete forward (LogicLayer::ForwardPacked) on
/// the 0/1 rows of `x`, 64 rows a block, as 0.0 / 1.0: the kernel the
/// oracle's ForwardDiscrete checks.
inline Matrix RunForwardPacked(const LogicLayer& layer, const Matrix& x) {
  LogicLayer::ActiveLists active;
  layer.BuildActiveLists(&active);
  Matrix y(x.rows(), layer.out_dim());
  std::vector<uint64_t> xw(layer.in_dim());
  std::vector<uint64_t> yw(layer.out_dim());
  for (size_t lo = 0; lo < x.rows(); lo += kRecordsPerWord) {
    const size_t n = std::min(kRecordsPerWord, x.rows() - lo);
    std::fill(xw.begin(), xw.end(), uint64_t{0});
    for (size_t r = 0; r < n; ++r) {
      for (int i = 0; i < layer.in_dim(); ++i) {
        if (x(lo + r, i) == 1.0) xw[i] |= uint64_t{1} << r;
      }
    }
    layer.ForwardPacked(active, xw.data(), yw.data());
    for (size_t r = 0; r < n; ++r) {
      for (int node = 0; node < layer.out_dim(); ++node) {
        y(lo + r, node) = (yw[node] >> r) & 1 ? 1.0 : 0.0;
      }
    }
  }
  return y;
}

}  // namespace ctfl

#endif  // CTFL_TESTS_LOGIC_ORACLE_H_
