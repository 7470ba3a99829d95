#include "ctfl/nn/linear_layer.h"

#include <algorithm>
#include <cmath>

#include "ctfl/nn/logic_kernel.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/logging.h"

namespace ctfl {

LinearLayer::LinearLayer(int in_dim, int out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weights_(out_dim, in_dim),
      bias_(1, out_dim),
      weight_grads_(out_dim, in_dim),
      bias_grads_(1, out_dim) {
  CTFL_CHECK(in_dim > 0 && out_dim > 0);
}

void LinearLayer::InitRandom(Rng& rng, double scale) {
  weights_.RandomUniform(rng, -scale, scale);
  bias_.Fill(0.0);
}

Matrix LinearLayer::Forward(const Matrix& x) const {
  CTFL_CHECK(static_cast<int>(x.cols()) == in_dim_);
  Matrix logits = x.MatMulTransposed(weights_);
  for (size_t r = 0; r < logits.rows(); ++r) {
    for (int c = 0; c < out_dim_; ++c) logits(r, c) += bias_(0, c);
  }
  return logits;
}

bool LinearLayer::WeightsFinite() const {
  return std::all_of(weights_.data(), weights_.data() + weights_.size(),
                     [](double w) { return std::isfinite(w); });
}

void LinearLayer::ForwardPacked(const uint64_t* words, size_t n,
                                Matrix* logits, size_t dst) const {
  CTFL_CHECK(n <= 64 && dst + n <= logits->rows() &&
             static_cast<int>(logits->cols()) == out_dim_);
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  double sums[64];
  for (int c = 0; c < out_dim_; ++c) {
    units.vote(words, weights_.row(c), in_dim_, sums);
    for (size_t r = 0; r < n; ++r) {
      (*logits)(dst + r, c) = sums[r] + bias_(0, c);
    }
  }
}

void LinearLayer::BackwardParams(const std::vector<Columns>& x,
                                 const Matrix& dlogits) {
  const size_t batch = dlogits.rows();
  size_t covered = 0;
  for (const Columns& block : x) {
    const size_t rows = block.x ? block.x->rows() : block.bits->rows();
    const size_t cols = block.x ? block.x->cols() : block.bits->cols();
    CTFL_CHECK(rows == batch &&
               block.offset + cols <= static_cast<size_t>(in_dim_));
    covered += cols;
  }
  CTFL_CHECK(covered == static_cast<size_t>(in_dim_) &&
             static_cast<int>(dlogits.cols()) == out_dim_);
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  Matrix dw(out_dim_, in_dim_);
  for (const Columns& block : x) {
    if (block.x != nullptr) {
      for (size_t r = 0; r < batch; ++r) {
        for (int k = 0; k < out_dim_; ++k) {
          const double g = dlogits(r, k);
          if (g == 0.0) continue;
          units.axpy(g, block.x->row(r), dw.row(k) + block.offset,
                     block.x->cols());
        }
      }
      continue;
    }
    // Packed 0/1 columns, 64 at a time per class: a finite g adds to its
    // row's set columns only (a clear column's g * 0.0 = ±0.0 leaves a sum
    // from +0.0 unchanged), a NaN or infinite one to every column.
    const PackedRows& bits = *block.bits;
    for (int k = 0; k < out_dim_; ++k) {
      for (size_t w = 0; w < bits.words(); ++w) {
        const size_t lo = w * 64;
        const int n = static_cast<int>(std::min<size_t>(64, bits.cols() - lo));
        double* y = dw.row(k) + block.offset + lo;
        double sums[64] = {};
        std::copy(y, y + n, sums);
        units.skip_sums(bits.row(0) + w, bits.words(), n, dlogits.data() + k,
                        dlogits.cols(), batch, sums);
        std::copy(sums, sums + n, y);
      }
    }
  }
  weight_grads_.Axpy(1.0, dw);
  for (size_t r = 0; r < batch; ++r) {
    for (int c = 0; c < out_dim_; ++c) bias_grads_(0, c) += dlogits(r, c);
  }
}

void LinearLayer::InputGradient(const Matrix& dlogits, size_t offset,
                                Matrix* dx) const {
  const size_t width = dx->cols();
  CTFL_CHECK(dx->rows() == dlogits.rows() &&
             static_cast<int>(dlogits.cols()) == out_dim_ &&
             offset + width <= static_cast<size_t>(in_dim_));
  const logic_kernel::Units& units = logic_kernel::UnitsFor(CurrentTraceIsa());
  for (size_t r = 0; r < dlogits.rows(); ++r) {
    double* o = dx->row(r);
    std::fill(o, o + width, 0.0);
    for (int k = 0; k < out_dim_; ++k) {
      const double g = dlogits(r, k);
      if (g == 0.0) continue;
      units.axpy(g, weights_.row(k) + offset, o, width);
    }
  }
}

}  // namespace ctfl
