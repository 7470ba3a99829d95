#ifndef CTFL_NN_LINEAR_LAYER_H_
#define CTFL_NN_LINEAR_LAYER_H_

#include <cstdint>
#include <vector>

#include "ctfl/nn/matrix.h"
#include "ctfl/util/rng.h"

namespace ctfl {

/// Final vote layer of the rule-based model: maps the rule-activation
/// vector to per-class scores. Its (real-valued, non-binarized) weights are
/// exactly the rule importance weights w+ / w- of paper Def. III.2 — rule r
/// supports the class whose weight for it is larger.
class LinearLayer {
 public:
  LinearLayer(int in_dim, int out_dim);

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

  void InitRandom(Rng& rng, double scale);

  /// logits = x * W^T + b, for x(batch x in): each logit sums its terms in
  /// ascending column order from +0.0, then adds the bias.
  Matrix Forward(const Matrix& x) const;

  /// True when every weight is finite, so that ForwardPacked gives
  /// Forward's bits on every 0/1 input (DESIGN.md §16.5).
  bool WeightsFinite() const;

  /// Forward of a block of n <= 64 input rows that are all 0.0 or 1.0,
  /// packed: bit r of words[j] is row r's column j (bits past n are
  /// don't-care). Writes rows [dst, dst + n) of `logits`, each the weights
  /// of the row's set columns summed in ascending order from +0.0, plus the
  /// bias.
  void ForwardPacked(const uint64_t* words, size_t n, Matrix* logits,
                     size_t dst) const;

  /// Columns [offset, offset + width) of the layer's input: the doubles of
  /// `x`, or (x null) the 0/1 columns packed in `bits`.
  struct Columns {
    const Matrix* x = nullptr;
    const PackedRows* bits = nullptr;
    size_t offset = 0;
  };

  /// Accumulates the parameter gradients of the input held by `x`, column
  /// blocks that cover [0, in_dim()) once each: dW += dlogits^T * x, each
  /// element's terms in ascending row order (zero dlogits skipped) summed
  /// from +0.0 before the add; db += the column sums of dlogits. A packed
  /// block adds a finite logit gradient to its row's set columns only: a
  /// clear column's term is ±0.0, which leaves a sum from +0.0 unchanged
  /// (DESIGN.md §16.5). A NaN or infinite one takes every column.
  void BackwardParams(const std::vector<Columns>& x, const Matrix& dlogits);

  /// Writes columns [offset, offset + dx->cols()) of the input gradient
  /// dlogits * W into dx (batch x width): each element from +0.0, the
  /// classes in ascending order, zero dlogits skipped.
  void InputGradient(const Matrix& dlogits, size_t offset, Matrix* dx) const;

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  Matrix& bias() { return bias_; }
  const Matrix& bias() const { return bias_; }
  Matrix& weight_grads() { return weight_grads_; }
  Matrix& bias_grads() { return bias_grads_; }

 private:
  int in_dim_;
  int out_dim_;
  Matrix weights_;       // (out x in)
  Matrix bias_;          // (1 x out)
  Matrix weight_grads_;  // (out x in)
  Matrix bias_grads_;    // (1 x out)
};

}  // namespace ctfl

#endif  // CTFL_NN_LINEAR_LAYER_H_
