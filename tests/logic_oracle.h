#ifndef CTFL_TESTS_LOGIC_ORACLE_H_
#define CTFL_TESTS_LOGIC_ORACLE_H_

// Reference kernels of the logic layer, the vote layer and the optimizer:
// the scalar per-element loops the production kernels replaced (DESIGN.md
// §16), kept as the oracle they must match bit for bit. Each logic-layer
// kernel takes the layer's weights and its conjunction count; `grads`
// accumulates like LogicLayer::grads().

#include <algorithm>
#include <cmath>

#include "ctfl/nn/matrix.h"

namespace ctfl {
namespace oracle {

inline constexpr double kEps = 1e-8;

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

/// Accumulates into `grads` and returns dx.
inline Matrix Backward(const Matrix& weights, int num_conj, const Matrix& x,
                       const Matrix& y, const Matrix& dy, Matrix* grads) {
  const int out_dim = static_cast<int>(weights.rows());
  const int in_dim = static_cast<int>(weights.cols());
  Matrix dx(x.rows(), in_dim);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    double* dxr = dx.row(r);
    for (int node = 0; node < out_dim; ++node) {
      const double g = dy(r, node);
      if (g == 0.0) continue;
      const double* w = weights.row(node);
      double* gw = grads->row(node);
      if (node < num_conj) {
        const double prod = y(r, node);
        if (prod <= 0.0) continue;
        for (int i = 0; i < in_dim; ++i) {
          const double t = std::max(kEps, 1.0 - w[i] * (1.0 - xr[i]));
          const double rest = prod / t;  // product of the other terms, <= 1
          gw[i] += g * (-(1.0 - xr[i]) * rest);
          dxr[i] += g * (w[i] * rest);
        }
      } else {
        const double prod = 1.0 - y(r, node);  // prod of (1 - w x)
        if (prod <= 0.0) continue;
        for (int i = 0; i < in_dim; ++i) {
          const double s = std::max(kEps, 1.0 - w[i] * xr[i]);
          const double rest = prod / s;
          gw[i] += g * (xr[i] * rest);
          dxr[i] += g * (w[i] * rest);
        }
      }
    }
  }
  return dx;
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
