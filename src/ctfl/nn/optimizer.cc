#include "ctfl/nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "ctfl/util/logging.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {

void SgdOptimizer::Step(const std::vector<ParamSlot>& slots) {
  if (velocity_.empty()) {
    for (const ParamSlot& s : slots) {
      velocity_.emplace_back(s.param->rows(), s.param->cols());
    }
  }
  CTFL_CHECK(velocity_.size() == slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    Matrix& vel = velocity_[i];
    vel.Scale(momentum_);
    vel.Axpy(1.0, *slots[i].grad);
    slots[i].param->Axpy(-lr_, vel);
  }
}

void AdamOptimizer::Step(const std::vector<ParamSlot>& slots) {
  if (m_.empty()) {
    for (const ParamSlot& s : slots) {
      m_.emplace_back(s.param->rows(), s.param->cols());
      v_.emplace_back(s.param->rows(), s.param->cols());
    }
  }
  CTFL_CHECK(m_.size() == slots.size());
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  // Every element updates on its own, so element ranges run in parallel
  // with results identical to the serial loop.
  struct Range {
    size_t slot;
    size_t lo;
    size_t hi;
  };
  constexpr size_t kRangeElements = 1024;
  std::vector<Range> ranges;
  size_t elements = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const size_t size = slots[i].param->size();
    for (size_t lo = 0; lo < size; lo += kRangeElements) {
      ranges.push_back({i, lo, std::min(size, lo + kRangeElements)});
    }
    elements += size;
  }
  // An element's update is about ten floating-point operations.
  ParallelFor(MatrixThreadsFor(elements * 10), 0, ranges.size(),
              [&](size_t r) {
                const Range& range = ranges[r];
                double* m = m_[range.slot].data();
                double* v = v_[range.slot].data();
                double* p = slots[range.slot].param->data();
                const double* g = slots[range.slot].grad->data();
                for (size_t k = range.lo; k < range.hi; ++k) {
                  const double gk = g[k];
                  m[k] = beta1_ * m[k] + (1.0 - beta1_) * gk;
                  v[k] = beta2_ * v[k] + (1.0 - beta2_) * gk * gk;
                  const double mhat = m[k] / bc1;
                  const double vhat = v[k] / bc2;
                  p[k] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
                }
              });
}

}  // namespace ctfl
