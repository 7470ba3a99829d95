#ifndef CTFL_TESTS_LOGIC_ORACLE_H_
#define CTFL_TESTS_LOGIC_ORACLE_H_

// Reference kernels of the logic layer, the vote layer and the optimizer:
// the scalar per-element loops the production kernels replaced (DESIGN.md
// §16), kept as the oracle they must match bit for bit, and the factored
// weight gradient layer 0 takes on a binary input (§16.3). Each logic-layer
// kernel takes the layer's weights and its conjunction count; `grads`
// accumulates like LogicLayer::grads(), and every gradient that ends NaN
// holds the one quiet NaN.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

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
  constexpr int kChunkNodes = 8;
  const int out_dim = static_cast<int>(weights.rows());
  const int in_dim = static_cast<int>(weights.cols());
  const Matrix start = *grads;
  std::vector<double> sums(in_dim);
  for (int node = 0; node < out_dim; ++node) {
    const bool conj = node < num_conj;
    const int base = conj ? 0 : num_conj;
    const int first = base + (node - base) / kChunkNodes * kChunkNodes;
    const int last = std::min(first + kChunkNodes, conj ? num_conj : out_dim);
    bool per_row = false;
    for (int m = first; m < last; ++m) {
      for (int i = 0; i < in_dim; ++i) {
        per_row |= !std::isfinite(weights(m, i)) ||
                   (start(m, i) == 0.0 && std::signbit(start(m, i)));
      }
    }
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
}  // namespace ctfl

#endif  // CTFL_TESTS_LOGIC_ORACLE_H_
