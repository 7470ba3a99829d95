#ifndef CTFL_NN_LOGIC_LAYER_H_
#define CTFL_NN_LOGIC_LAYER_H_

#include <cstdint>
#include <vector>

#include "ctfl/nn/matrix.h"
#include "ctfl/util/rng.h"

namespace ctfl {

/// Records per word of the bit-packed discrete pass: bit r of an input or
/// node word belongs to record r of the current block.
inline constexpr size_t kRecordsPerWord = 64;

/// Packs rows [lo, lo + n) of `x` (n <= kRecordsPerWord) input-major:
/// bit r of words[i] is set iff x(lo + r, i) >= 0.5. `words` holds
/// x.cols() words.
void PackRows(const Matrix& x, size_t lo, size_t n, uint64_t* words);

/// One logical layer of the rule-based model (paper §V Eq. 7): the first
/// `num_conj` nodes are conjunctions, the rest disjunctions, each with a
/// weight vector w in [0,1]^in controlling how strongly every input takes
/// part in the logical operation:
///
///   Conj(x, w) = prod_i (1 - w_i (1 - x_i))
///   Disj(x, w) = 1 - prod_i (1 - w_i x_i)
///
/// With binarized weights (w > 0.5) and binary inputs these become crisp
/// AND / OR over the selected inputs; the continuous form is what gradient
/// grafting differentiates through.
///
/// Kernels (DESIGN.md §16): the discrete forward is bit-packed, 64 records
/// per word. The continuous forward and the parameter backward take an
/// exact factor-table kernel when every input is exactly 0.0 or 1.0 (the
/// encoder's output, i.e. layer 0) and the generic per-element loop
/// otherwise. Both produce the generic loop's results bit for bit. The
/// table kernels shard by 8-node chunk across the compute pool under the
/// matrix thread budget (MatrixThreadsFor), never by row, so every element
/// keeps its serial term order.
class LogicLayer {
 public:
  LogicLayer(int in_dim, int num_conj, int num_disj);

  int in_dim() const { return in_dim_; }
  int num_conj() const { return num_conj_; }
  int num_disj() const { return num_disj_; }
  int out_dim() const { return num_conj_ + num_disj_; }
  bool IsConjNode(int node) const { return node < num_conj_; }

  /// Sparse initialization: each node gets `fan_in` random active inputs
  /// with weights in (0.5, 1) and zeros elsewhere. Keeps initial products
  /// away from 0 so grafted gradients do not vanish.
  void InitSparse(Rng& rng, int fan_in);

  /// Continuous (fuzzy) forward: Y(batch x out).
  Matrix ForwardContinuous(const Matrix& x) const;

  /// Forward with weights binarized at 0.5 and inputs thresholded at 0.5:
  /// crisp AND/OR (bit-packed, 64 rows at a time).
  Matrix ForwardDiscrete(const Matrix& x) const;

  /// Accumulates parameter gradients for the continuous form given the
  /// cached input `x`, cached continuous output `y`, and upstream gradient
  /// `dy`; returns the gradient w.r.t. x.
  Matrix Backward(const Matrix& x, const Matrix& y, const Matrix& dy);

  /// Backward without the input gradient: accumulates exactly the
  /// parameter gradients Backward would. For the first layer, whose input
  /// gradient nobody consumes.
  void BackwardWeights(const Matrix& x, const Matrix& y, const Matrix& dy);

  /// Inputs whose binarized weight is active (> 0.5) for `node`.
  std::vector<int> ActiveInputs(int node) const;

  /// Active inputs of every node in one flat array: node n reads
  /// inputs[begin[n]] .. inputs[begin[n + 1] - 1], ascending.
  struct ActiveLists {
    std::vector<int> begin;
    std::vector<int> inputs;
  };
  /// Rebuilds `lists` from the current weights, reusing its storage.
  void BuildActiveLists(ActiveLists* lists) const;

  /// Bit-packed discrete forward of one block of up to 64 records. `x`
  /// holds in_dim() words and `y` receives out_dim() words; bit r of a
  /// word belongs to record r. A conjunction is the AND of its active
  /// inputs' words (all ones when it has none), a disjunction their OR.
  /// Bits past the block's records are don't-care on both sides.
  void ForwardPacked(const ActiveLists& active, const uint64_t* x,
                     uint64_t* y) const;

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  Matrix& grads() { return grads_; }

  /// Projects weights back into [0, 1] (called after optimizer steps).
  void ProjectWeights() { weights_.Clamp(0.0, 1.0); }

 private:
  int in_dim_;
  int num_conj_;
  int num_disj_;
  Matrix weights_;  // (out_dim x in_dim), values in [0, 1]
  Matrix grads_;
};

}  // namespace ctfl

#endif  // CTFL_NN_LOGIC_LAYER_H_
