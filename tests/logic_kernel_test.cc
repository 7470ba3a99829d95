// The logic-layer kernels (bit-packed discrete pass, factor-table
// continuous forward and parameter backward, DESIGN.md §16) against the
// scalar loops they replaced, kept in logic_oracle.h: every output,
// weight gradient and input gradient must match bit for bit.

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/nn/logic_layer.h"
#include "ctfl/nn/logical_net.h"
#include "ctfl/nn/loss.h"
#include "ctfl/nn/trainer.h"
#include "logic_oracle.h"

namespace ctfl {
namespace {

constexpr size_t kBatchSizes[] = {1, 63, 64, 65, 257};
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

::testing::AssertionResult BitEqual(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (size_t k = 0; k < got.size(); ++k) {
    if (std::memcmp(got.data() + k, want.data() + k, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << k << " (row " << k / got.cols() << ", col "
             << k % got.cols() << "): " << got.data()[k] << " vs "
             << want.data()[k];
    }
  }
  return ::testing::AssertionSuccess();
}

Matrix BinaryInput(size_t rows, int cols, Rng& rng) {
  Matrix x(rows, cols);
  for (size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Bernoulli(0.4) ? 1.0 : 0.0;
  }
  return x;
}

Matrix FuzzyInput(size_t rows, int cols, Rng& rng) {
  Matrix x(rows, cols);
  x.RandomUniform(rng, 0.0, 1.0);
  return x;
}

/// Uniform weights with a third drawn from the values the kernels treat
/// specially: 0.0 (a factor of exactly 1), 0.5 (inactive in the discrete
/// pass), 1.0 (a factor clamped to kEps) and 1e-20 (1 - w == 1.0).
void FillWeights(LogicLayer* layer, Rng& rng, bool only_special = false) {
  constexpr double kSpecial[] = {0.0, 0.5, 1.0, 1e-20};
  for (size_t k = 0; k < layer->weights().size(); ++k) {
    double& w = layer->weights().data()[k];
    if (only_special || rng.Bernoulli(0.33)) {
      w = kSpecial[rng.UniformInt(4)];
    } else {
      w = rng.Uniform(0.0, 1.0);
    }
  }
}

/// Upstream gradient with exact zeros, and optionally NaN and infinities.
Matrix UpstreamGradient(size_t rows, int cols, Rng& rng, bool non_finite) {
  Matrix dy(rows, cols);
  for (size_t k = 0; k < dy.size(); ++k) {
    const double u = rng.Uniform(0.0, 1.0);
    double& g = dy.data()[k];
    if (u < 0.1) {
      g = 0.0;
    } else if (non_finite && u < 0.13) {
      g = kNaN;
    } else if (non_finite && u < 0.15) {
      g = rng.Bernoulli(0.5) ? kInf : -kInf;
    } else {
      g = rng.Uniform(-1.0, 1.0);
    }
  }
  return dy;
}

// 13 conjunctions and 11 disjunctions over 37 inputs: no node count is a
// multiple of the kernels' chunk width.
LogicLayer OddLayer(Rng& rng, bool only_special = false) {
  LogicLayer layer(37, 13, 11);
  FillWeights(&layer, rng, only_special);
  return layer;
}

TEST(LogicKernelTest, ForwardsMatchOracle) {
  Rng rng(101);
  for (bool only_special : {false, true}) {
    const LogicLayer layer = OddLayer(rng, only_special);
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch << " special "
                                        << only_special);
      for (bool binary : {true, false}) {
        const Matrix x = binary ? BinaryInput(batch, layer.in_dim(), rng)
                                : FuzzyInput(batch, layer.in_dim(), rng);
        const Matrix& w = layer.weights();
        EXPECT_TRUE(BitEqual(layer.ForwardContinuous(x),
                             oracle::ForwardContinuous(w, 13, x)));
        EXPECT_TRUE(BitEqual(layer.ForwardDiscrete(x),
                             oracle::ForwardDiscrete(w, 13, x)));
      }
    }
  }
}

TEST(LogicKernelTest, BackwardWeightsMatchOracleOnBinaryInputs) {
  Rng rng(102);
  for (bool only_special : {false, true}) {
    LogicLayer layer = OddLayer(rng, only_special);
    for (size_t batch : kBatchSizes) {
      for (bool non_finite : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << batch << " special " << only_special
                     << " non-finite dy " << non_finite);
        const Matrix x = BinaryInput(batch, layer.in_dim(), rng);
        const Matrix y = oracle::ForwardContinuous(layer.weights(), 13, x);
        const Matrix dy =
            UpstreamGradient(batch, layer.out_dim(), rng, non_finite);
        // From zeroed gradients (a training step) and from accumulated
        // ones (a second call in the same step).
        for (bool accumulated : {false, true}) {
          Matrix want(layer.out_dim(), layer.in_dim());
          if (accumulated) want.RandomUniform(rng, -1.0, 1.0);
          layer.grads() = want;
          oracle::Backward(layer.weights(), 13, x, y, dy, &want);
          layer.BackwardWeights(x, y, dy);
          EXPECT_TRUE(BitEqual(layer.grads(), want));
        }
      }
    }
  }
}

TEST(LogicKernelTest, BackwardWeightsMatchOracleOnUnusualCaches) {
  // Products outside (0, 1] (a cache the forward did not produce), a
  // gradient holding -0.0, non-finite weights and non-binary inputs all
  // leave the table path; the result must not change.
  Rng rng(103);
  LogicLayer layer = OddLayer(rng);
  const size_t batch = 65;
  const Matrix x = BinaryInput(batch, layer.in_dim(), rng);
  Matrix y(batch, layer.out_dim());
  y.RandomUniform(rng, -0.5, 1.5);
  const Matrix dy = UpstreamGradient(batch, layer.out_dim(), rng, true);
  auto check = [&](const LogicLayer& base, const Matrix& input,
                   const Matrix& start, const char* what) {
    SCOPED_TRACE(what);
    LogicLayer subject = base;
    Matrix want = start;
    subject.grads() = start;
    oracle::Backward(subject.weights(), 13, input, y, dy, &want);
    subject.BackwardWeights(input, y, dy);
    EXPECT_TRUE(BitEqual(subject.grads(), want));
  };
  const Matrix zero(layer.out_dim(), layer.in_dim());
  check(layer, x, zero, "products outside (0, 1]");
  Matrix negative_zero(layer.out_dim(), layer.in_dim());
  negative_zero(3, 5) = -0.0;
  check(layer, x, negative_zero, "a -0.0 gradient");
  {
    // Input 5 at 1 in every row: conjunction 3 gets only ±0.0 terms for
    // it, and +0.0 (from g < 0) turns the oracle's -0.0 into +0.0.
    SCOPED_TRACE("a -0.0 gradient that only ±0.0 terms reach");
    Matrix ones = x;
    for (size_t r = 0; r < batch; ++r) ones(r, 5) = 1.0;
    const Matrix fy = oracle::ForwardContinuous(layer.weights(), 13, ones);
    Matrix fdy = UpstreamGradient(batch, layer.out_dim(), rng, false);
    fdy(0, 3) = -0.25;
    LogicLayer subject = layer;
    Matrix want = negative_zero;
    subject.grads() = negative_zero;
    oracle::Backward(subject.weights(), 13, ones, fy, fdy, &want);
    subject.BackwardWeights(ones, fy, fdy);
    EXPECT_TRUE(BitEqual(subject.grads(), want));
  }
  LogicLayer nan_weight = layer;
  nan_weight.weights()(2, 7) = kNaN;
  check(nan_weight, x, zero, "a NaN weight");
  EXPECT_TRUE(BitEqual(nan_weight.ForwardContinuous(x),
                       oracle::ForwardContinuous(nan_weight.weights(), 13, x)));
  check(layer, FuzzyInput(batch, layer.in_dim(), rng), zero,
        "non-binary inputs");
}

TEST(LogicKernelTest, BackwardMatchesOracleIncludingInputGradient) {
  Rng rng(104);
  LogicLayer layer = OddLayer(rng);
  for (size_t batch : kBatchSizes) {
    for (bool binary : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch << " binary "
                                        << binary);
      const Matrix x = binary ? BinaryInput(batch, layer.in_dim(), rng)
                              : FuzzyInput(batch, layer.in_dim(), rng);
      const Matrix y = oracle::ForwardContinuous(layer.weights(), 13, x);
      const Matrix dy = UpstreamGradient(batch, layer.out_dim(), rng, true);
      Matrix want(layer.out_dim(), layer.in_dim());
      layer.grads().Fill(0.0);
      const Matrix want_dx =
          oracle::Backward(layer.weights(), 13, x, y, dy, &want);
      const Matrix dx = layer.Backward(x, y, dy);
      EXPECT_TRUE(BitEqual(layer.grads(), want));
      EXPECT_TRUE(BitEqual(dx, want_dx));
    }
  }
}

// ---- Whole nets: one and two logic layers, trained weights ---------------

Dataset TwoFeatureData(size_t n, uint64_t seed) {
  SyntheticSpec spec;
  spec.schema = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1),
                               FeatureSchema::Continuous("z", 0, 1),
                               FeatureSchema::Discrete("a", {"p", "q", "r"})},
      "neg", "pos");
  spec.samplers = {
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
      FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0,
                     {0.3, 0.3, 0.4}}};
  spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5},
                  {2, GtPredicate::Op::kGt, 0.5}},
                 1,
                 1.0},
                {{{1, GtPredicate::Op::kLt, 0.3}}, 0, 1.0}};
  Rng rng(seed);
  return GenerateSynthetic(spec, n, rng);
}

/// The net's discrete rule matrix rebuilt from the oracle kernels.
Matrix OracleRules(const LogicalNet& net, const Matrix& encoded) {
  std::vector<Matrix> outs;
  const Matrix* in = &encoded;
  for (const LogicLayer& layer : net.logic_layers()) {
    outs.push_back(oracle::ForwardDiscrete(layer.weights(), layer.num_conj(),
                                           *in));
    in = &outs.back();
  }
  Matrix rules(encoded.rows(), net.num_rules());
  for (size_t r = 0; r < encoded.rows(); ++r) {
    size_t offset = 0;
    if (net.config().input_skip) {
      for (size_t c = 0; c < encoded.cols(); ++c) rules(r, c) = encoded(r, c);
      offset = encoded.cols();
    }
    for (const Matrix& out : outs) {
      for (size_t c = 0; c < out.cols(); ++c) rules(r, offset + c) = out(r, c);
      offset += out.cols();
    }
  }
  return rules;
}

void ExpectNetMatchesOracle(LogicalNet net, const Dataset& data) {
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    std::vector<size_t> rows(batch);
    for (size_t r = 0; r < batch; ++r) rows[r] = r % data.size();
    const Matrix encoded = net.EncodeBatch(data, rows);
    const std::vector<LogicLayer>& layers = net.logic_layers();

    // Continuous forward, layer by layer.
    LogicalNet::Cache cache;
    net.ForwardContinuous(encoded, &cache);
    std::vector<Matrix> want_out;
    const Matrix* in = &encoded;
    for (size_t l = 0; l < layers.size(); ++l) {
      want_out.push_back(oracle::ForwardContinuous(
          layers[l].weights(), layers[l].num_conj(), *in));
      in = &want_out.back();
      EXPECT_TRUE(BitEqual(cache.layer_out[l], want_out[l]));
    }

    // Discrete forward, and the per-record inference built on it.
    const Matrix want_rules = OracleRules(net, encoded);
    EXPECT_TRUE(BitEqual(net.RulesDiscrete(encoded), want_rules));
    const Matrix logits = net.ForwardDiscrete(encoded);
    EXPECT_TRUE(BitEqual(logits, net.linear().Forward(want_rules)));
    Dataset subset(data.schema());
    for (size_t r : rows) subset.AppendUnchecked(data.instance(r));
    std::vector<uint8_t> predicted;
    std::vector<Bitset> activations;
    net.InferDataset(subset, &predicted, &activations);
    ASSERT_EQ(predicted.size(), batch);
    for (size_t r = 0; r < batch; ++r) {
      const int want_class = logits(r, 1) >= logits(r, 0) ? 1 : 0;
      Bitset want_bits(net.num_rules());
      for (int j = 0; j < net.num_rules(); ++j) {
        if (want_rules(r, j) > 0.5) want_bits.Set(j);
      }
      EXPECT_EQ(predicted[r], want_class) << "record " << r;
      EXPECT_EQ(activations[r], want_bits) << "record " << r;
      const LogicalNet::Inference one = net.Infer(subset.instance(r));
      EXPECT_EQ(one.predicted, want_class);
      EXPECT_EQ(one.activation, want_bits);
      EXPECT_EQ(net.Predict(subset.instance(r)), want_class);
      EXPECT_EQ(net.RuleActivations(subset.instance(r)), want_bits);
    }

    // Grafted backward: weight gradients of every logic layer, with the
    // input gradients of layers >= 1 flowing into the layer below.
    std::vector<int> labels(batch);
    for (size_t r = 0; r < batch; ++r) labels[r] = data.instance(rows[r]).label;
    Matrix dlogits;
    SoftmaxCrossEntropy(logits, labels, &dlogits);
    net.ZeroGrads();
    net.Backward(cache, dlogits);
    const Matrix drules = dlogits.MatMul(net.linear().weights());
    std::vector<Matrix> dout(layers.size());
    size_t offset = net.config().input_skip ? net.encoded_size() : 0;
    for (size_t l = 0; l < layers.size(); ++l) {
      dout[l] = Matrix(batch, layers[l].out_dim());
      for (size_t r = 0; r < batch; ++r) {
        for (int c = 0; c < layers[l].out_dim(); ++c) {
          dout[l](r, c) = drules(r, offset + c);
        }
      }
      offset += layers[l].out_dim();
    }
    for (int l = static_cast<int>(layers.size()) - 1; l >= 0; --l) {
      Matrix want_grads(layers[l].out_dim(), layers[l].in_dim());
      const Matrix& input = l == 0 ? encoded : want_out[l - 1];
      const Matrix dx =
          oracle::Backward(layers[l].weights(), layers[l].num_conj(), input,
                           want_out[l], dout[l], &want_grads);
      if (l > 0) dout[l - 1].Axpy(1.0, dx);
      EXPECT_TRUE(
          BitEqual(net.mutable_logic_layers()[l].grads(), want_grads))
          << "layer " << l;
    }
  }
}

LogicalNet TrainedNet(const std::vector<std::pair<int, int>>& shape,
                      const Dataset& data) {
  LogicalNetConfig config;
  config.tau_d = 5;
  config.logic_layers = shape;
  config.seed = 21;
  LogicalNet net(data.schema(), config);
  TrainConfig train;
  train.epochs = 3;
  train.num_threads = 1;
  TrainGrafted(net, data, train);
  return net;
}

TEST(LogicKernelTest, OneLayerTrainedNetMatchesOracle) {
  const Dataset data = TwoFeatureData(300, 5);
  ExpectNetMatchesOracle(TrainedNet({{13, 11}}, data), data);
}

TEST(LogicKernelTest, TwoLayerTrainedNetMatchesOracle) {
  const Dataset data = TwoFeatureData(300, 6);
  ExpectNetMatchesOracle(TrainedNet({{13, 11}, {6, 5}}, data), data);
}

TEST(LogicKernelTest, NetWithoutSkipMatchesOracle) {
  const Dataset data = TwoFeatureData(200, 7);
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{9, 7}, {5, 4}};
  config.input_skip = false;
  config.seed = 8;
  LogicalNet net(data.schema(), config);
  TrainConfig train;
  train.epochs = 2;
  train.num_threads = 1;
  TrainGrafted(net, data, train);
  ExpectNetMatchesOracle(net, data);
}

}  // namespace
}  // namespace ctfl
