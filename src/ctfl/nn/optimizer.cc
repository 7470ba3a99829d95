#include "ctfl/nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "ctfl/nn/logic_kernel.h"
#include "ctfl/util/cpu_features.h"
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
  logic_kernel::AdamJob job;
  job.lr = lr_;
  job.beta1 = beta1_;
  job.beta2 = beta2_;
  job.one_minus_beta1 = 1.0 - beta1_;
  job.one_minus_beta2 = 1.0 - beta2_;
  job.eps = eps_;
  job.bc1 = 1.0 - std::pow(beta1_, t_);
  job.bc2 = 1.0 - std::pow(beta2_, t_);
  // The corrected quotient m / bc needs bc in [2^-20, 1] (DESIGN.md §16.3);
  // a zero reciprocal keeps the division.
  auto reciprocal = [](double bc) {
    return bc >= 0x1p-20 && bc <= 1.0 ? 1.0 / bc : 0.0;
  };
  job.inv_bc1 = reciprocal(job.bc1);
  job.inv_bc2 = reciprocal(job.bc2);
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
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  // An element's update is about ten floating-point operations.
  ParallelFor(MatrixThreadsFor(elements * 10), 0, ranges.size(),
              [&](size_t r) {
                const Range& range = ranges[r];
                units.adam(job, m_[range.slot].data() + range.lo,
                           v_[range.slot].data() + range.lo,
                           slots[range.slot].param->data() + range.lo,
                           slots[range.slot].grad->data() + range.lo,
                           range.hi - range.lo);
              });
}

}  // namespace ctfl
