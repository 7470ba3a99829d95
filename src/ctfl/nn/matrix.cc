#include "ctfl/nn/matrix.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "ctfl/util/logging.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {

namespace {

// 0 = hardware concurrency; see SetMatrixParallelism.
std::atomic<int> g_matrix_threads{0};
std::atomic<size_t> g_matrix_grain{size_t{1} << 16};

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

int MatrixThreadsFor(size_t flops) {
  return flops >= g_matrix_grain.load(std::memory_order_relaxed)
             ? MatrixParallelism()
             : 1;
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

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  CTFL_CHECK(cols_ == other.cols_);
  Matrix out(rows_, other.rows_);
  // One output row is one unit of work: the inner loops are identical to
  // the serial kernel, so sharding rows cannot change a single bit.
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
  const int threads = MatrixThreadsFor(rows_ * cols_ * other.rows_);
  if (rows_ > 1 && threads > 1) {
    ParallelFor(threads, 0, rows_, row_kernel);
  } else {
    for (size_t r = 0; r < rows_; ++r) row_kernel(r);
  }
  return out;
}

void Matrix::RandomUniform(Rng& rng, double lo, double hi) {
  for (double& v : data_) v = rng.Uniform(lo, hi);
}

void PackedRows::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  words_ = (cols + 63) / 64;
  data_.assign(rows * words_, 0);
}

bool PackBinary(const Matrix& x, PackedRows* out) {
  // Compared as bit patterns: exactly +0.0 and 1.0 pack. Anything else,
  // -0.0 included, is not binary, and the generic loops read it as it is.
  constexpr uint64_t kOne = 0x3ff0000000000000;  // 1.0
  out->Resize(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.row(r);
    uint64_t* bits = out->row(r);
    bool odd = false;
    for (size_t lo = 0; lo < x.cols(); lo += 64) {
      const size_t n = std::min<size_t>(64, x.cols() - lo);
      uint64_t word = 0;
      for (size_t k = 0; k < n; ++k) {
        uint64_t u;
        std::memcpy(&u, xr + lo + k, sizeof(u));
        word |= (u >> 61) << k;  // 1 for 1.0, 0 for +0.0
        odd |= (u != 0) & (u != kOne);
      }
      bits[lo / 64] = word;
    }
    if (odd) return false;
  }
  return true;
}

void UnpackRow(const uint64_t* bits, size_t n, double* out) {
  for (size_t j = 0; j < n; ++j) {
    out[j] = (bits[j / 64] >> (j % 64)) & 1 ? 1.0 : 0.0;
  }
}

}  // namespace ctfl
