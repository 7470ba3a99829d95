#include "ctfl/nn/matrix.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "ctfl/util/logging.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {

namespace {

// 0 = hardware concurrency; see SetMatrixParallelism.
std::atomic<int> g_matrix_threads{0};
std::atomic<size_t> g_matrix_grain{size_t{1} << 16};

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;         // guarded by g_pool_mu
int g_pool_size = 0;                        // guarded by g_pool_mu

/// True when `flops` of multiply-accumulate work should fan out across the
/// shared pool under the current settings and calling context.
bool UseParallel(size_t flops) {
  if (MatrixParallelism() <= 1) return false;
  if (ThreadPool::InPoolWorker()) return false;  // no nested parallelism
  return flops >= g_matrix_grain.load(std::memory_order_relaxed);
}

/// Shared pool behind the sharded kernels, sized to MatrixParallelism().
/// Returns nullptr when the resolved setting is serial or the caller is
/// already inside a pool worker (nested parallelism is never profitable
/// here).
ThreadPool* MatrixParallelPool() {
  const int threads = MatrixParallelism();
  if (threads <= 1 || ThreadPool::InPoolWorker()) return nullptr;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr || g_pool_size != threads) {
    g_pool.reset();  // join the old workers before resizing
    g_pool = std::make_unique<ThreadPool>(threads);
    g_pool_size = threads;
  }
  return g_pool.get();
}

}  // namespace

void SetMatrixParallelism(int num_threads) {
  g_matrix_threads.store(std::max(0, num_threads),
                         std::memory_order_relaxed);
}

int MatrixParallelism() {
  return ResolveThreadCount(g_matrix_threads.load(std::memory_order_relaxed));
}

void SetMatrixParallelGrain(size_t min_flops) {
  g_matrix_grain.store(std::max<size_t>(1, min_flops),
                       std::memory_order_relaxed);
}

size_t MatrixParallelGrain() {
  return g_matrix_grain.load(std::memory_order_relaxed);
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::Axpy(double alpha, const Matrix& other) {
  CTFL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::Clamp(double lo, double hi) {
  for (double& v : data_) v = std::clamp(v, lo, hi);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  CTFL_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  // One output row is one unit of work: the inner k/c loops are identical
  // to the serial kernel, so sharding rows cannot change a single bit.
  auto row_kernel = [&](size_t r) {
    const double* a = row(r);
    double* o = out.row(r);
    for (size_t k = 0; k < cols_; ++k) {
      const double av = a[k];
      if (av == 0.0) continue;
      const double* b = other.row(k);
      for (size_t c = 0; c < other.cols_; ++c) o[c] += av * b[c];
    }
  };
  ThreadPool* pool;
  if (rows_ > 1 && UseParallel(rows_ * cols_ * other.cols_) &&
      (pool = MatrixParallelPool()) != nullptr) {
    pool->ParallelFor(0, rows_, row_kernel);
  } else {
    for (size_t r = 0; r < rows_; ++r) row_kernel(r);
  }
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  CTFL_CHECK(rows_ == other.rows_);
  Matrix out(cols_, other.cols_);
  ThreadPool* pool = nullptr;
  if (cols_ > 1 && UseParallel(rows_ * cols_ * other.cols_)) {
    pool = MatrixParallelPool();
  }
  if (pool == nullptr) {
    // Serial kernel: r-outer is cache-friendly on `this`. Each out(k, c)
    // accumulates its a(r, k) * b(r, c) terms for r ascending, skipping
    // zero a(r, k).
    for (size_t r = 0; r < rows_; ++r) {
      const double* a = row(r);
      const double* b = other.row(r);
      for (size_t k = 0; k < cols_; ++k) {
        const double av = a[k];
        if (av == 0.0) continue;
        double* o = out.row(k);
        for (size_t c = 0; c < other.cols_; ++c) o[c] += av * b[c];
      }
    }
    return out;
  }
  // Sharded kernel: one *output* row k per unit of work. For a fixed k the
  // r-terms are visited in the same ascending order, with the same
  // zero-skip, as the serial kernel — identical floating-point sequence
  // per element, hence bit-identical results (DESIGN.md §9).
  pool->ParallelFor(0, cols_, [&](size_t k) {
    double* o = out.row(k);
    for (size_t r = 0; r < rows_; ++r) {
      const double av = data_[r * cols_ + k];
      if (av == 0.0) continue;
      const double* b = other.row(r);
      for (size_t c = 0; c < other.cols_; ++c) o[c] += av * b[c];
    }
  });
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  CTFL_CHECK(cols_ == other.cols_);
  Matrix out(rows_, other.rows_);
  auto row_kernel = [&](size_t r) {
    const double* a = row(r);
    size_t c = 0;
    // Two outputs per pass: each still sums its terms in ascending k from
    // 0.0, but the two independent chains overlap their add latency.
    for (; c + 2 <= other.rows_; c += 2) {
      const double* b0 = other.row(c);
      const double* b1 = other.row(c + 1);
      double sum0 = 0.0;
      double sum1 = 0.0;
      for (size_t k = 0; k < cols_; ++k) {
        sum0 += a[k] * b0[k];
        sum1 += a[k] * b1[k];
      }
      out(r, c) = sum0;
      out(r, c + 1) = sum1;
    }
    for (; c < other.rows_; ++c) {
      const double* b = other.row(c);
      double sum = 0.0;
      for (size_t k = 0; k < cols_; ++k) sum += a[k] * b[k];
      out(r, c) = sum;
    }
  };
  ThreadPool* pool;
  if (rows_ > 1 && UseParallel(rows_ * cols_ * other.rows_) &&
      (pool = MatrixParallelPool()) != nullptr) {
    pool->ParallelFor(0, rows_, row_kernel);
  } else {
    for (size_t r = 0; r < rows_; ++r) row_kernel(r);
  }
  return out;
}

void Matrix::RandomUniform(Rng& rng, double lo, double hi) {
  for (double& v : data_) v = rng.Uniform(lo, hi);
}

}  // namespace ctfl
