#include "ctfl/nn/logic_layer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "logic_oracle.h"

namespace ctfl {
namespace {

TEST(LogicLayerTest, ContinuousConjDisjHandValues) {
  // 1 conj node + 1 disj node over 2 inputs.
  LogicLayer layer(2, 1, 1);
  layer.weights()(0, 0) = 1.0;  // conj uses both inputs fully
  layer.weights()(0, 1) = 1.0;
  layer.weights()(1, 0) = 1.0;  // disj likewise
  layer.weights()(1, 1) = 1.0;

  Matrix x(1, 2);
  x(0, 0) = 0.5;
  x(0, 1) = 1.0;
  const Matrix y = layer.ForwardContinuous(x);
  // Conj: (1 - 1*(1-0.5)) * (1 - 1*(1-1)) = 0.5 * 1 = 0.5.
  EXPECT_NEAR(y(0, 0), 0.5, 1e-6);
  // Disj: 1 - (1 - 0.5)(1 - 1.0) = 1 - 0 = 1.
  EXPECT_NEAR(y(0, 1), 1.0, 1e-6);
}

TEST(LogicLayerTest, ZeroWeightMeansNoParticipation) {
  LogicLayer layer(3, 1, 1);
  layer.weights()(0, 1) = 1.0;  // conj only looks at input 1
  layer.weights()(1, 2) = 1.0;  // disj only looks at input 2
  Matrix x(1, 3);
  x(0, 0) = 0.0;
  x(0, 1) = 1.0;
  x(0, 2) = 0.0;
  const Matrix y = layer.ForwardContinuous(x);
  EXPECT_NEAR(y(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(y(0, 1), 0.0, 1e-6);
}

TEST(LogicLayerTest, DiscreteIsCrispAndOr) {
  LogicLayer layer(3, 1, 1);
  // Conj over inputs {0, 1}; disj over inputs {1, 2}. Weight 0.6 > 0.5 is
  // active, 0.4 is not.
  layer.weights()(0, 0) = 0.6;
  layer.weights()(0, 1) = 0.9;
  layer.weights()(0, 2) = 0.4;
  layer.weights()(1, 1) = 0.7;
  layer.weights()(1, 2) = 0.8;

  auto eval = [&](double a, double b, double c) {
    Matrix x(1, 3);
    x(0, 0) = a;
    x(0, 1) = b;
    x(0, 2) = c;
    return RunForwardPacked(layer, x);
  };
  EXPECT_DOUBLE_EQ(eval(1, 1, 0)(0, 0), 1.0);  // AND(0,1) = 1
  EXPECT_DOUBLE_EQ(eval(1, 0, 0)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(eval(0, 0, 1)(0, 1), 1.0);  // OR(1,2) = 1
  EXPECT_DOUBLE_EQ(eval(0, 0, 0)(0, 1), 0.0);
}

TEST(LogicLayerTest, EmptyNodesAreConstants) {
  LogicLayer layer(2, 1, 1);  // all weights zero
  Matrix x(1, 2);
  x(0, 0) = 1.0;
  const Matrix yd = RunForwardPacked(layer, x);
  EXPECT_DOUBLE_EQ(yd(0, 0), 1.0);  // empty AND = true
  EXPECT_DOUBLE_EQ(yd(0, 1), 0.0);  // empty OR = false
  const Matrix yc = layer.ForwardContinuous(x);
  EXPECT_DOUBLE_EQ(yc(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(yc(0, 1), 0.0);
}

TEST(LogicLayerTest, ContinuousMatchesDiscreteOnBinaryWeights) {
  Rng rng(5);
  LogicLayer layer(6, 3, 3);
  // Weights exactly 0 or 1 make the fuzzy forms collapse to crisp logic.
  for (int node = 0; node < layer.out_dim(); ++node) {
    for (int i = 0; i < 6; ++i) {
      layer.weights()(node, i) = rng.Bernoulli(0.4) ? 1.0 : 0.0;
    }
  }
  Matrix x(8, 6);
  for (size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 6; ++i) x(r, i) = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  const Matrix yc = layer.ForwardContinuous(x);
  const Matrix yd = RunForwardPacked(layer, x);
  for (size_t r = 0; r < 8; ++r) {
    for (int node = 0; node < layer.out_dim(); ++node) {
      EXPECT_NEAR(yc(r, node), yd(r, node), 1e-6);
    }
  }
}

TEST(LogicLayerTest, InitSparseBoundsActiveInputs) {
  Rng rng(6);
  LogicLayer layer(32, 8, 8);
  layer.InitSparse(rng, 3);
  for (int node = 0; node < layer.out_dim(); ++node) {
    const auto active = layer.ActiveInputs(node);
    EXPECT_GE(active.size(), 1u);
    EXPECT_LE(active.size(), 3u);
    for (int i = 0; i < 32; ++i) {
      const double w = layer.weights()(node, i);
      EXPECT_TRUE(w == 0.0 || (w > 0.5 && w < 0.95));
    }
  }
}

// Finite-difference check of the analytic gradients — the central
// correctness test of the differentiable logic substrate.
class LogicLayerGradientTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogicLayerGradientTest, BackwardMatchesFiniteDifferences) {
  Rng rng(GetParam());
  const int in_dim = 5;
  LogicLayer layer(in_dim, 2, 2);
  for (int node = 0; node < layer.out_dim(); ++node) {
    for (int i = 0; i < in_dim; ++i) {
      layer.weights()(node, i) = rng.Uniform(0.05, 0.95);
    }
  }
  Matrix x(3, in_dim);
  for (size_t r = 0; r < 3; ++r) {
    for (int i = 0; i < in_dim; ++i) x(r, i) = rng.Uniform(0.05, 0.95);
  }
  // Random upstream gradient; scalar loss L = sum dy .* y.
  Matrix dy(3, layer.out_dim());
  for (size_t r = 0; r < 3; ++r) {
    for (int node = 0; node < layer.out_dim(); ++node) {
      dy(r, node) = rng.Uniform(-1.0, 1.0);
    }
  }
  auto loss = [&](const Matrix& input) {
    const Matrix y = layer.ForwardContinuous(input);
    double total = 0.0;
    for (size_t r = 0; r < y.rows(); ++r) {
      for (size_t c = 0; c < y.cols(); ++c) total += dy(r, c) * y(r, c);
    }
    return total;
  };

  layer.grads().Fill(0.0);
  const Matrix y = layer.ForwardContinuous(x);
  const Matrix dx = layer.Backward(x, y, dy);

  const double eps = 1e-6;
  // Weight gradients.
  for (int node = 0; node < layer.out_dim(); ++node) {
    for (int i = 0; i < in_dim; ++i) {
      const double w0 = layer.weights()(node, i);
      layer.weights()(node, i) = w0 + eps;
      const double up = loss(x);
      layer.weights()(node, i) = w0 - eps;
      const double down = loss(x);
      layer.weights()(node, i) = w0;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(layer.grads()(node, i), numeric, 1e-5)
          << "node " << node << " input " << i;
    }
  }
  // Input gradients.
  for (size_t r = 0; r < 3; ++r) {
    for (int i = 0; i < in_dim; ++i) {
      Matrix xp = x, xm = x;
      xp(r, i) += eps;
      xm(r, i) -= eps;
      const double numeric = (loss(xp) - loss(xm)) / (2 * eps);
      EXPECT_NEAR(dx(r, i), numeric, 1e-5) << "row " << r << " input " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogicLayerGradientTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ctfl
