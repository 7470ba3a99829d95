#ifndef CTFL_NN_MATRIX_H_
#define CTFL_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "ctfl/util/rng.h"

namespace ctfl {

// ---------------------------------------------------------------------------
// Process-wide parallelism knobs for the dense kernels (DESIGN.md §9).
//
// The sharded kernels split work across *output rows* (the logic layer's
// across 8-node chunks, the optimizer's across element ranges), so every
// output element is accumulated by exactly one thread in exactly the same
// term order as the serial loop — results are bit-identical for any
// thread count, and the knobs below only trade wall time. They run on the
// process-wide compute pool (util/thread_pool.h); inside another parallel
// section they share that section's thread budget.
// ---------------------------------------------------------------------------

/// Sets the thread budget of the sharded kernels, the caller included:
/// 0 = hardware concurrency, 1 = always serial, N = N threads. Thread-safe
/// (atomic), but intended to be set from entry points (CLI, RunCtfl,
/// TrainGrafted), not concurrently with running kernels.
void SetMatrixParallelism(int num_threads);
/// Resolved current setting (>= 1).
int MatrixParallelism();

/// Minimum multiply-accumulate count before a kernel engages the sharded
/// path (serial fallback below it; default 64k). Exposed as a test hook so
/// the differential suite can force tiny matrices onto the parallel path.
void SetMatrixParallelGrain(size_t min_flops);
size_t MatrixParallelGrain();

/// Thread budget of a sharded kernel doing `flops` multiply-accumulates:
/// MatrixParallelism() at or above the grain, 1 below it.
int MatrixThreadsFor(size_t flops);

/// Dense row-major matrix of doubles; the numeric workhorse of the logical
/// neural network. Deliberately minimal: only the operations the training
/// loop needs.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  void Fill(double v);

  /// Element-wise in-place scaled add: this += alpha * other.
  void Axpy(double alpha, const Matrix& other);

  /// this = this * scalar.
  void Scale(double s);

  /// Clamps every element into [lo, hi].
  void Clamp(double lo, double hi);

  /// Returns this(rows x k) * other(k x cols). Row-sharded across the
  /// compute pool above the grain threshold; bit-identical to the serial
  /// loop at any thread count.
  Matrix MatMul(const Matrix& other) const;

  /// Returns transpose(this)(cols x rows) * other(rows x c) without
  /// materializing the transpose. The sharded path walks output rows
  /// (columns of this) and accumulates the r-terms in the same ascending
  /// order as the serial loop — bit-identical results.
  Matrix TransposedMatMul(const Matrix& other) const;

  /// Returns this(rows x k) * transpose(other)(k x c) without materializing
  /// the transpose. Row-sharded; bit-identical to serial.
  Matrix MatMulTransposed(const Matrix& other) const;

  /// Fills with U[lo, hi) samples.
  void RandomUniform(Rng& rng, double lo, double hi);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace ctfl

#endif  // CTFL_NN_MATRIX_H_
