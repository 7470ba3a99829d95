#include "ctfl/nn/matrix.h"

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ctfl {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FillScaleClamp) {
  Matrix m(2, 2);
  m.Fill(3.0);
  m.Scale(2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 6.0);
  m(0, 0) = -5.0;
  m.Clamp(0.0, 4.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, Axpy) {
  Matrix a(1, 2), b(1, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  b(0, 0) = 10.0;
  b(0, 1) = 20.0;
  a.Axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 12.0);
}

TEST(MatrixTest, MatMulHandExample) {
  Matrix a(2, 3);
  Matrix bt(2, 3);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]], stored transposed.
  double av[] = {1, 2, 3, 4, 5, 6};
  double btv[] = {7, 9, 11, 8, 10, 12};
  std::copy(av, av + 6, a.data());
  std::copy(btv, btv + 6, bt.data());
  const Matrix c = a.MatMulTransposed(bt);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposedVariantsAgreeWithExplicit) {
  Rng rng(9);
  Matrix a(4, 5), c(6, 5);
  a.RandomUniform(rng, -1, 1);
  c.RandomUniform(rng, -1, 1);

  // a * c^T via MatMulTransposed.
  const Matrix act = a.MatMulTransposed(c);
  ASSERT_EQ(act.rows(), 4u);
  ASSERT_EQ(act.cols(), 6u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      double expected = 0.0;
      for (size_t k = 0; k < 5; ++k) expected += a(i, k) * c(j, k);
      EXPECT_NEAR(act(i, j), expected, 1e-12);
    }
  }
}

// ---- Sharded kernels vs serial reference --------------------------------
//
// The parallel kernels promise *bit* identity with the serial path: each
// output element is accumulated by exactly one thread in the same term
// order. These tests force the sharded path with a grain of 1 flop and
// compare against the serial result with memcmp — EXPECT_NEAR would hide a
// broken schedule.

class ShardedKernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetMatrixParallelism(0);
    SetMatrixParallelGrain(size_t{1} << 16);
  }

  static Matrix Random(size_t rows, size_t cols, uint64_t seed) {
    Rng rng(seed);
    Matrix m(rows, cols);
    m.RandomUniform(rng, -1, 1);
    return m;
  }

  static ::testing::AssertionResult SameBits(const Matrix& a,
                                             const Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
      return ::testing::AssertionFailure() << "shape mismatch";
    }
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
      for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) {
          return ::testing::AssertionFailure()
                 << "first bit difference at flat index " << i << ": "
                 << a.data()[i] << " vs " << b.data()[i];
        }
      }
    }
    return ::testing::AssertionSuccess();
  }
};

TEST_F(ShardedKernelTest, AllKernelsBitIdenticalOnRaggedShapes) {
  // Ragged and degenerate shapes: single row, single column, prime
  // dimensions, and a shape with fewer rows than workers.
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {1, 97}, {97, 1}, {3, 8}, {7, 11}, {13, 5}, {31, 2}, {64, 64}};
  uint64_t seed = 100;
  for (const auto& [m, k] : shapes) {
    for (const size_t n : {size_t{1}, size_t{7}, size_t{32}}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " k=" << k << " n=" << n);
      const Matrix a = Random(m, k, ++seed);
      const Matrix bt = Random(n, k, ++seed);

      SetMatrixParallelism(1);  // serial reference
      const Matrix serial_abt = a.MatMulTransposed(bt);

      SetMatrixParallelism(8);
      SetMatrixParallelGrain(1);  // force the sharded path on tiny inputs
      EXPECT_TRUE(SameBits(serial_abt, a.MatMulTransposed(bt)));
      SetMatrixParallelism(1);
      SetMatrixParallelGrain(size_t{1} << 16);
    }
  }
}

TEST_F(ShardedKernelTest, GrainThresholdKeepsSmallProductsSerial) {
  // Below the grain the parallel pool must not even be consulted; the
  // result is identical either way, but this pins the gate's semantics.
  SetMatrixParallelism(8);
  SetMatrixParallelGrain(size_t{1} << 30);
  const Matrix a = Random(5, 5, 1);
  const Matrix b = Random(5, 5, 2);
  const Matrix gated = a.MatMulTransposed(b);
  SetMatrixParallelism(1);
  EXPECT_TRUE(SameBits(gated, a.MatMulTransposed(b)));
}

TEST_F(ShardedKernelTest, ParallelismKnobRoundTrips) {
  SetMatrixParallelism(3);
  EXPECT_EQ(MatrixParallelism(), 3);
  SetMatrixParallelism(1);
  EXPECT_EQ(MatrixParallelism(), 1);
  SetMatrixParallelism(0);  // 0 = hardware concurrency, resolved >= 1
  EXPECT_GE(MatrixParallelism(), 1);
  SetMatrixParallelGrain(42);
  EXPECT_EQ(MatrixParallelGrain(), 42u);
}

TEST(MatrixTest, RandomUniformInRange) {
  Rng rng(10);
  Matrix m(10, 10);
  m.RandomUniform(rng, -0.5, 0.5);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -0.5);
    EXPECT_LT(m.data()[i], 0.5);
  }
}

}  // namespace
}  // namespace ctfl
