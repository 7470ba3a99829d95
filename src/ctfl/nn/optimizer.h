#ifndef CTFL_NN_OPTIMIZER_H_
#define CTFL_NN_OPTIMIZER_H_

#include <memory>
#include <vector>

#include "ctfl/nn/matrix.h"

namespace ctfl {

/// A trainable parameter matrix paired with its gradient accumulator.
struct ParamSlot {
  Matrix* param = nullptr;
  Matrix* grad = nullptr;
};

/// Gradient-descent update rule applied to a model's parameter slots.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update using the accumulated gradients (does not zero
  /// them; the trainer owns that).
  virtual void Step(const std::vector<ParamSlot>& slots) = 0;

  /// Drops accumulated optimizer state (momentum/moments).
  virtual void Reset() = 0;
};

/// SGD with optional momentum.
class SgdOptimizer : public Optimizer {
 public:
  explicit SgdOptimizer(double lr, double momentum = 0.0)
      : lr_(lr), momentum_(momentum) {}

  void Step(const std::vector<ParamSlot>& slots) override;
  void Reset() override { velocity_.clear(); }

 private:
  double lr_;
  double momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba); the default for logical-net training, matching the
/// RRL reference implementation the paper builds on.
class AdamOptimizer : public Optimizer {
 public:
  explicit AdamOptimizer(double lr, double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void Step(const std::vector<ParamSlot>& slots) override;
  void Reset() override {
    m_.clear();
    v_.clear();
    t_ = 0;
  }

  /// The first and second moment estimates, one matrix per slot (empty
  /// before the first Step).
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  int t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace ctfl

#endif  // CTFL_NN_OPTIMIZER_H_
