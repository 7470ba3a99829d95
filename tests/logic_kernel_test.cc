// The logic-layer kernels (bit-packed discrete pass, continuous forward and
// parameter backward, DESIGN.md §16) and the Adam update against the
// scalar loops they replaced, layer 0's factored weight gradient against
// its reference, and a layer with an encoder's input layout against the
// grouped references, all kept in logic_oracle.h: every output, weight
// gradient, input gradient and parameter must match bit for bit, at every
// SIMD tier this machine supports.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/nn/binarization_layer.h"
#include "ctfl/nn/linear_layer.h"
#include "ctfl/nn/logic_kernel.h"
#include "ctfl/nn/logic_layer.h"
#include "ctfl/nn/logical_net.h"
#include "ctfl/nn/loss.h"
#include "ctfl/nn/optimizer.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/thread_pool.h"
#include "isa_tiers.h"
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

/// The 0/1 rows of `x`, packed, as layer 0's weight backward reads them.
PackedRows Pack(const Matrix& x) {
  PackedRows packed;
  EXPECT_TRUE(PackBinary(x, &packed));
  return packed;
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
  ForEachTier([](TraceIsa) {
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
          // The discrete pass reads packed bits: 0/1 inputs only.
          if (binary) {
            EXPECT_TRUE(BitEqual(RunForwardPacked(layer, x),
                                 oracle::ForwardDiscrete(w, 13, x)));
          }
        }
      }
    }
  });
}

TEST(LogicKernelTest, BackwardWeightsMatchOracleOnBinaryInputs) {
  ForEachTier([](TraceIsa) {
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
            oracle::BackwardWeightsFactored(layer.weights(), 13, x, y, dy,
                                            &want);
            layer.BackwardWeights(Pack(x), y, dy);
            EXPECT_TRUE(BitEqual(layer.grads(), want)) << "accumulated "
                                                       << accumulated;
          }
        }
      }
    }
  });
}

TEST(LogicKernelTest, BackwardWeightsMatchOracleOnUnusualCaches) {
  ForEachTier([](TraceIsa) {
    // Products outside (0, 1] (a cache the forward did not produce), a
    // gradient holding -0.0 and non-finite weights all leave the table
    // path; the result must not change.
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
      oracle::BackwardWeightsFactored(subject.weights(), 13, input, y, dy,
                                      &want);
      subject.BackwardWeights(Pack(input), y, dy);
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
      oracle::BackwardWeightsFactored(subject.weights(), 13, ones, fy, fdy,
                                      &want);
      subject.BackwardWeights(Pack(ones), fy, fdy);
      EXPECT_TRUE(BitEqual(subject.grads(), want));
    }
    LogicLayer nan_weight = layer;
    nan_weight.weights()(2, 7) = kNaN;
    check(nan_weight, x, zero, "a NaN weight");
    LogicLayer negative_weight = layer;
    negative_weight.weights()(4, 9) = -2.7;
    check(negative_weight, x, zero, "a negative weight");
    EXPECT_TRUE(
        BitEqual(nan_weight.ForwardContinuous(x),
                 oracle::ForwardContinuous(nan_weight.weights(), 13, x)));
  });
}

TEST(LogicKernelTest, BackwardWeightsMatchOracleOnExtremeProducts) {
  // Products at 2^-900 and its neighbours, subnormal products, 1.0,
  // factors at both ends of the table's range (c = kEps at w = 1, c = 1 at
  // w = 0, both among FillWeights' special values), and factors above 1.0
  // (negative weights): terms that underflow, and sums whose one division
  // leaves the normal range, must still take the oracle's bits.
  const double kProducts[] = {0x1p-900,
                              std::nextafter(0x1p-900, 0.0),
                              std::nextafter(0x1p-900, 1.0),
                              0x1.8p-900,
                              0x1p-901,
                              0x1p-1022,
                              0x1p-1040,
                              std::numeric_limits<double>::denorm_min(),
                              1e-300,
                              1e-8,
                              0.5,
                              std::nextafter(1.0, 0.0),
                              1.0};
  constexpr size_t kNumProducts = sizeof(kProducts) / sizeof(kProducts[0]);
  ForEachTier([&](TraceIsa) {
    Rng rng(107);
    for (bool negative : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "negative weights " << negative);
      LogicLayer layer = OddLayer(rng);
      if (negative) {
        layer.weights()(2, 3) = -1e300;
        layer.weights()(15, 4) = -7.5;
      }
      const size_t batch = 65;
      const Matrix x = BinaryInput(batch, layer.in_dim(), rng);
      Matrix y(batch, layer.out_dim());
      for (size_t r = 0; r < batch; ++r) {
        for (int node = 0; node < layer.out_dim(); ++node) {
          const double p = kProducts[rng.UniformInt(kNumProducts)];
          y(r, node) = node < 13 ? p : 1.0 - p;
        }
      }
      const Matrix dy = UpstreamGradient(batch, layer.out_dim(), rng, false);
      Matrix want(layer.out_dim(), layer.in_dim());
      layer.grads() = want;
      oracle::BackwardWeightsFactored(layer.weights(), 13, x, y, dy, &want);
      layer.BackwardWeights(Pack(x), y, dy);
      EXPECT_TRUE(BitEqual(layer.grads(), want));
    }
  });
}

/// A finite double of `mantissa` (52 bits) and unbiased exponent `exp`.
double MakeDouble(uint64_t mantissa, int exp) {
  const uint64_t bits = (static_cast<uint64_t>(exp + 1023) << 52) |
                        (mantissa & ((uint64_t{1} << 52) - 1));
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// A 52-bit mantissa of one of the shapes division gets wrong most easily:
/// random, near all ones, near zero (a power of two), a single bit, or
/// random low bits under all-ones high bits.
uint64_t StructuredMantissa(uint64_t r, uint64_t shape) {
  constexpr uint64_t kAll = (uint64_t{1} << 52) - 1;
  switch (shape % 5) {
    case 0:
      return r;
    case 1:
      return kAll - (r & 0xffff);
    case 2:
      return r & 0xffff;
    case 3:
      return uint64_t{1} << (r % 52);
    default:
      return kAll ^ (r & 0xfffff);
  }
}

TEST(LogicKernelTest, TierQuotientMatchesDivision) {
  // Each tier's quotient against IEEE division on 10M structured operand
  // pairs: dividends in [2^-900, 1] over divisors in [kEps, 1], and Adam's
  // (dividends up to 2^1000, divisors from 2^-20).
  constexpr size_t kPairs = 10'000'000;
  constexpr size_t kBlock = 4096;
  ForEachTier([&](TraceIsa isa) {
    const logic_kernel::Units& units = logic_kernel::UnitsFor(isa);
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto next = [&state] {  // xorshift64*
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      return state * 0x2545f4914f6cdd1dULL;
    };
    std::vector<double> a(kBlock);
    std::vector<double> b(kBlock);
    std::vector<double> q(kBlock);
    size_t mismatches = 0;
    for (size_t done = 0; done < kPairs; done += kBlock) {
      for (size_t k = 0; k < kBlock; ++k) {
        const uint64_t shape = next();
        const bool adam = shape % 4 == 0;
        const int a_exp = adam ? static_cast<int>(next() % 1900) - 900
                               : -static_cast<int>(next() % 901);
        const int b_exp = adam ? -static_cast<int>(next() % 21)
                               : -static_cast<int>(next() % 27);
        a[k] = std::min(MakeDouble(StructuredMantissa(next(), shape), a_exp),
                        adam ? 0x1p1000 : 1.0);
        b[k] = std::max(MakeDouble(StructuredMantissa(next(), shape >> 8),
                                   b_exp),
                        adam ? 0x1p-20 : logic_kernel::kEps);
      }
      units.quotient(a.data(), b.data(), q.data(), kBlock);
      for (size_t k = 0; k < kBlock; ++k) {
        const double want = a[k] / b[k];
        if (std::memcmp(&q[k], &want, sizeof(want)) != 0) {
          if (mismatches < 5) {
            ADD_FAILURE() << std::hexfloat << a[k] << " / " << b[k] << " = "
                          << q[k] << ", want " << want;
          }
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  });
}

TEST(LogicKernelTest, EachTierSelectsItsOwnUnit) {
  // The units agree bit for bit, so no result can tell them apart: this
  // pins the mapping the per-tier timings rest on.
  EXPECT_EQ(&logic_kernel::UnitsFor(TraceIsa::kAvx512),
            &logic_kernel::Avx512Units());
  EXPECT_EQ(&logic_kernel::UnitsFor(TraceIsa::kAvx2),
            &logic_kernel::Avx2Units());
  EXPECT_EQ(&logic_kernel::UnitsFor(TraceIsa::kScalar),
            &logic_kernel::GenericUnits());
  EXPECT_EQ(&logic_kernel::UnitsFor(TraceIsa::kNeon),
            &logic_kernel::GenericUnits());
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_NE(&logic_kernel::Avx512Units(), &logic_kernel::Avx2Units());
  EXPECT_NE(&logic_kernel::Avx2Units(), &logic_kernel::GenericUnits());
#endif
}

TEST(LogicKernelTest, BackwardMatchesOracleIncludingInputGradient) {
  ForEachTier([](TraceIsa) {
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
  });
}

// ---- Sharded on the compute pool ------------------------------------------

/// Grain 1 and `threads` threads for the test's lifetime, so every table
/// kernel and optimizer step fans out and helpers take chunks.
class ScopedSharding {
 public:
  explicit ScopedSharding(int threads = 4) {
    SetMatrixParallelism(threads);
    SetMatrixParallelGrain(1);
  }
  ~ScopedSharding() {
    SetMatrixParallelism(0);
    SetMatrixParallelGrain(size_t{1} << 16);
  }
};

/// The table forward and parameter backward of `layer` on fresh inputs,
/// against the oracle.
void ExpectTableKernelsMatchOracle(LogicLayer layer, Rng& rng) {
  const int conj = layer.num_conj();
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    const Matrix x = BinaryInput(batch, layer.in_dim(), rng);
    const Matrix y = oracle::ForwardContinuous(layer.weights(), conj, x);
    EXPECT_TRUE(BitEqual(layer.ForwardContinuous(x), y));
    const Matrix dy = UpstreamGradient(batch, layer.out_dim(), rng, true);
    Matrix want(layer.out_dim(), layer.in_dim());
    want.RandomUniform(rng, -1.0, 1.0);
    layer.grads() = want;
    oracle::BackwardWeightsFactored(layer.weights(), conj, x, y, dy, &want);
    layer.BackwardWeights(Pack(x), y, dy);
    EXPECT_TRUE(BitEqual(layer.grads(), want));
  }
}

TEST(LogicKernelTest, ShardedTableKernelsMatchOracle) {
  // Node chunks of the table kernels run on the compute pool: from the
  // test thread with helpers, and nested in another parallel section whose
  // threads share the budget. 29 + 27 nodes make eight chunks, two of them
  // partial; a NaN weight in one chunk and a -0.0 gradient in another send
  // just those chunks to the generic loop.
  ForEachTier([](TraceIsa) {
    ScopedSharding sharding;
    Rng rng(105);
    LogicLayer layer(37, 29, 27);
    FillWeights(&layer, rng);
    ExpectTableKernelsMatchOracle(layer, rng);

    LogicLayer odd = layer;
    odd.weights()(9, 4) = kNaN;
    ExpectTableKernelsMatchOracle(odd, rng);
    // Input counts around the vector split's 16-input step.
    for (int in_dim : {1, 15, 16, 17, 33}) {
      SCOPED_TRACE(::testing::Message() << "in_dim " << in_dim);
      LogicLayer narrow(in_dim, 9, 7);
      FillWeights(&narrow, rng);
      ExpectTableKernelsMatchOracle(narrow, rng);
    }
    {
      SCOPED_TRACE("a -0.0 gradient in one chunk");
      const Matrix x = BinaryInput(65, layer.in_dim(), rng);
      const Matrix y = oracle::ForwardContinuous(layer.weights(), 29, x);
      const Matrix dy = UpstreamGradient(65, layer.out_dim(), rng, false);
      Matrix want(layer.out_dim(), layer.in_dim());
      want(40, 3) = -0.0;
      LogicLayer subject = layer;
      subject.grads() = want;
      oracle::BackwardWeightsFactored(subject.weights(), 29, x, y, dy, &want);
      subject.BackwardWeights(Pack(x), y, dy);
      EXPECT_TRUE(BitEqual(subject.grads(), want));
    }

    std::vector<Rng> streams;
    for (uint64_t i = 0; i < 4; ++i) streams.emplace_back(200 + i);
    ParallelFor(4, 0, streams.size(), [&](size_t i) {
      ExpectTableKernelsMatchOracle(layer, streams[i]);
    });
  });
}

TEST(LogicKernelTest, FactoredWeightGradientMatchesOracleEverywhere) {
  // Layer 0's weight gradient sums g * prod over the rows listing each
  // input in ascending row order, then divides once (DESIGN.md §16.3):
  // every tier at 1, 2 and 4 threads must give the oracle's bits. 70
  // inputs span two words of a packed row; 19 + 13 nodes make five chunks,
  // two of them partial. Weights hold 0, 0.5, 1 and 1e-20 and negative
  // values; products come from the forward, or sit at 2^-900 and its
  // neighbours, or are subnormal; upstream gradients hold 0, -0, NaN and
  // ±inf among random ones; gradients start at +0.0 or random.
  const double kProducts[] = {0x1p-900, std::nextafter(0x1p-900, 0.0),
                              std::nextafter(0x1p-900, 1.0), 0x1p-1040,
                              std::numeric_limits<double>::denorm_min()};
  const double kGradients[] = {0.0, -0.0, kNaN, kInf, -kInf};
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    ScopedSharding sharding(threads);
    ForEachTier([&](TraceIsa) {
      Rng rng(113);
      LogicLayer layer(70, 19, 13);
      FillWeights(&layer, rng);
      for (size_t k = 0; k < layer.weights().size(); ++k) {
        if (rng.Bernoulli(0.05)) {
          layer.weights().data()[k] = rng.Uniform(-3.0, 0.0);
        }
      }
      for (size_t batch : kBatchSizes) {
        const Matrix x = BinaryInput(batch, layer.in_dim(), rng);
        Matrix y = oracle::ForwardContinuous(layer.weights(), 19, x);
        Matrix dy(batch, layer.out_dim());
        dy.RandomUniform(rng, -1.0, 1.0);
        for (size_t r = 0; r < batch; ++r) {
          for (int node = 0; node < layer.out_dim(); ++node) {
            if (rng.Bernoulli(0.1)) {
              const double p = kProducts[rng.UniformInt(5)];
              y(r, node) = node < 19 ? p : 1.0 - p;
            }
            if (rng.Bernoulli(0.05)) {
              dy(r, node) = kGradients[rng.UniformInt(5)];
            }
          }
        }
        for (bool random_start : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "batch " << batch
                                            << " random start "
                                            << random_start);
          Matrix want(layer.out_dim(), layer.in_dim());
          if (random_start) want.RandomUniform(rng, -1.0, 1.0);
          layer.grads() = want;
          oracle::BackwardWeightsFactored(layer.weights(), 19, x, y, dy,
                                          &want);
          layer.BackwardWeights(Pack(x), y, dy);
          EXPECT_TRUE(BitEqual(layer.grads(), want));
        }
      }
    });
  }
}

TEST(LogicKernelTest, MaskedWeightSumsMatchOracleAroundGroupEdges) {
  // Layer 0's weight backward with every input its own group (the
  // singleton layout): the bucket kernels sum each input's terms by code
  // and divide 8 inputs at a time (DESIGN.md §16.3). Input counts around
  // the 8-input groups and the packed words' 64 bits, node counts with
  // partial chunks or no node of one kind, and batches around the 64-row
  // blocks, 4 fresh batches each: every tier at 1, 2 and 4 threads must
  // give the oracle's bits. Products and upstream gradients take the odd
  // values of the case above among random ones; gradients start at +0.0 or
  // random, one batch per shape starts one gradient at -0.0, and one holds
  // a NaN weight.
  const double kProducts[] = {0x1p-900, std::nextafter(0x1p-900, 0.0),
                              std::nextafter(0x1p-900, 1.0), 0x1p-1040,
                              std::numeric_limits<double>::denorm_min()};
  const double kGradients[] = {0.0, -0.0, kNaN, kInf, -kInf};
  constexpr int kFreshBatches = 4;
  const std::pair<int, int> kLayers[] = {{13, 11}, {8, 0}, {0, 9}, {48, 48}};
  Rng rng(131);
  for (int in_dim : {1, 7, 8, 9, 63, 64, 65, 71, 72, 157, 200}) {
    for (const auto& [conj, disj] : kLayers) {
      LogicLayer layer(in_dim, conj, disj);
      FillWeights(&layer, rng);
      for (size_t k = 0; k < layer.weights().size(); ++k) {
        if (rng.Bernoulli(0.05)) {
          layer.weights().data()[k] = rng.Uniform(-3.0, 0.0);
        }
      }
      const int out = layer.out_dim();
      for (size_t batch : kBatchSizes) {
        for (int b = 0; b < kFreshBatches; ++b) {
          if (::testing::Test::HasFailure()) return;
          SCOPED_TRACE(::testing::Message()
                       << "in_dim " << in_dim << " layer (" << conj << ", "
                       << disj << ") batch " << batch << " #" << b);
          const Matrix x = BinaryInput(batch, in_dim, rng);
          Matrix y(batch, out);
          Matrix dy(batch, out);
          for (size_t r = 0; r < batch; ++r) {
            for (int node = 0; node < out; ++node) {
              const double p = rng.Bernoulli(0.1)
                                   ? kProducts[rng.UniformInt(5)]
                                   : rng.Uniform(0.0, 1.0);
              y(r, node) = node < conj ? p : 1.0 - p;
              dy(r, node) = rng.Bernoulli(0.05) ? kGradients[rng.UniformInt(5)]
                                                : rng.Uniform(-1.0, 1.0);
            }
          }
          LogicLayer subject = layer;
          Matrix start(out, in_dim);
          if (b % 2 == 1) start.RandomUniform(rng, -1.0, 1.0);
          if (b == kFreshBatches - 2) {
            start(rng.UniformInt(out), rng.UniformInt(in_dim)) = -0.0;
          }
          if (b == kFreshBatches - 1) {
            subject.weights()(rng.UniformInt(out), rng.UniformInt(in_dim)) =
                kNaN;
          }
          Matrix want = start;
          oracle::BackwardWeightsFactored(subject.weights(), conj, x, y, dy,
                                          &want);
          const PackedRows packed = Pack(x);
          for (int threads : {1, 2, 4}) {
            ScopedSharding sharding(threads);
            ForEachTier([&](TraceIsa) {
              subject.grads() = start;
              subject.BackwardWeights(packed, y, dy);
              EXPECT_TRUE(BitEqual(subject.grads(), want))
                  << "threads " << threads;
            });
          }
        }
      }
    }
  }
}

/// A schema whose encoding has every group shape: discrete features of 1,
/// 2, 7 and 70 categories around two continuous ones.
SchemaPtr GroupShapesSchema() {
  auto categories = [](int n) {
    std::vector<std::string> names;
    for (int c = 0; c < n; ++c) {
      std::string name = "v";
      name += std::to_string(c);
      names.push_back(std::move(name));
    }
    return names;
  };
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Discrete("d1", categories(1)),
                               FeatureSchema::Continuous("c0", 0, 1),
                               FeatureSchema::Discrete("d2", categories(2)),
                               FeatureSchema::Discrete("d7", categories(7)),
                               FeatureSchema::Continuous("c1", -5, 5),
                               FeatureSchema::Discrete("d70", categories(70))},
      "neg", "pos");
}

/// `n` records of `schema`, each value uniform over its feature's domain,
/// and NaN in about one value of ten.
Dataset GroupShapesData(const SchemaPtr& schema, size_t n, Rng& rng) {
  Dataset data(schema);
  for (size_t r = 0; r < n; ++r) {
    Instance instance;
    for (const FeatureSpec& spec : schema->features()) {
      const int categories = spec.num_categories();
      double v = spec.type == FeatureType::kDiscrete
                     ? static_cast<double>(rng.UniformInt(categories))
                     : rng.Uniform(spec.lo, spec.hi);
      if (rng.Bernoulli(0.1)) v = kNaN;
      instance.values.push_back(v);
    }
    instance.label = static_cast<int>(rng.UniformInt(2));
    data.AppendUnchecked(std::move(instance));
  }
  return data;
}

TEST(LogicKernelTest, GroupedLayerMatchesOracleEverywhere) {
  // Layer 0 by feature group (DESIGN.md §16.2, §16.3). Layouts come from
  // the encoder at tau_d 1, 2, 10 and 70 over discrete features of 1, 2, 7
  // and 70 categories: groups that straddle a word or are wider than one,
  // in_dim up to 360. Records hold NaN values (a one-hot group with no bit
  // set, all-clear staircases). Per batch size, one batch as encoded, one
  // with two categories set in a row and one with a hole in a staircase
  // (those groups become singletons for the batch), and one with a NaN
  // weight and a -0.0 starting gradient; weights hold 0, 0.5, 1 and 1e-20
  // among random ones, upstream gradients 0, NaN and ±inf. Every tier at 1,
  // 2 and 4 threads must give the grouped oracle's outputs and gradients
  // bit for bit.
  const SchemaPtr schema = GroupShapesSchema();
  Rng rng(137);
  for (int tau_d : {1, 2, 10, 70}) {
    Rng bounds(static_cast<uint64_t>(tau_d));
    const BinarizationLayer encoder(schema, tau_d, bounds);
    const std::vector<logic_kernel::InputGroup> layout = encoder.InputLayout();
    // d1, c0 >, c0 <, d2, d7, c1 >, c1 <, d70.
    ASSERT_EQ(layout.size(), 8u);
    LogicLayer base(encoder.encoded_size(), 13, 11);
    base.SetLayout(layout);
    FillWeights(&base, rng);
    const Dataset data = GroupShapesData(schema, 257, rng);
    for (size_t batch : kBatchSizes) {
      for (int variant = 0; variant < 4; ++variant) {
        SCOPED_TRACE(::testing::Message() << "tau_d " << tau_d << " batch "
                                          << batch << " variant " << variant);
        std::vector<size_t> rows(batch);
        for (size_t r = 0; r < batch; ++r) {
          rows[r] = rng.UniformInt(data.size());
        }
        Matrix x = encoder.EncodeBatch(data, rows);
        LogicLayer layer = base;
        Matrix start(layer.out_dim(), layer.in_dim());
        if (batch % 2 == 1) start.RandomUniform(rng, -1.0, 1.0);
        const size_t row = batch / 2;
        const logic_kernel::InputGroup& d7 = layout[4];
        const logic_kernel::InputGroup& c1 = layout[5];
        switch (variant) {
          case 1:
            x(row, d7.first) = 1.0;
            x(row, d7.first + 5) = 1.0;
            break;
          case 2:
            if (c1.size >= 2) {
              x(row, c1.first) = 0.0;
              x(row, c1.first + 1) = 1.0;
            } else {
              x(row, layout[3].first) = 1.0;
              x(row, layout[3].first + 1) = 1.0;
            }
            break;
          case 3:
            layer.weights()(rng.UniformInt(layer.out_dim()),
                            rng.UniformInt(layer.in_dim())) = kNaN;
            start(rng.UniformInt(layer.out_dim()),
                  rng.UniformInt(layer.in_dim())) = -0.0;
            break;
        }
        const Matrix want_y = oracle::ForwardGrouped(layer.weights(), 13,
                                                     layout, x);
        const Matrix dy =
            UpstreamGradient(batch, layer.out_dim(), rng, variant == 3);
        Matrix want = start;
        oracle::BackwardWeightsGrouped(layer.weights(), 13, layout, x,
                                       want_y, dy, &want);
        for (int threads : {1, 2, 4}) {
          ScopedSharding sharding(threads);
          ForEachTier([&](TraceIsa) {
            EXPECT_TRUE(BitEqual(layer.ForwardContinuous(x), want_y))
                << "threads " << threads;
            layer.grads() = start;
            layer.BackwardWeights(Pack(x), want_y, dy);
            EXPECT_TRUE(BitEqual(layer.grads(), want))
                << "threads " << threads;
          });
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(LogicKernelTest, SingletonOracleIsThePerInputOracle) {
  // With every input its own group, the grouped oracle states the per-input
  // loops' products and the factored sums in their own order: the layouts
  // of the encoder are the only source of new bits.
  Rng rng(141);
  LogicLayer layer = OddLayer(rng);
  for (size_t batch : kBatchSizes) {
    const Matrix x = BinaryInput(batch, layer.in_dim(), rng);
    const Matrix& w = layer.weights();
    const Matrix y = oracle::ForwardContinuous(w, 13, x);
    EXPECT_TRUE(BitEqual(oracle::ForwardGrouped(w, 13, {}, x), y));
    const Matrix dy = UpstreamGradient(batch, layer.out_dim(), rng, true);
    Matrix want(layer.out_dim(), layer.in_dim());
    want.RandomUniform(rng, -1.0, 1.0);
    Matrix got = want;
    oracle::BackwardWeightsFactored(w, 13, x, y, dy, &want);
    oracle::BackwardWeightsGrouped(w, 13, {}, x, y, dy, &got);
    EXPECT_TRUE(BitEqual(got, want));
  }
}

TEST(LogicKernelTest, ShardedAdamMatchesSerial) {
  // Element ranges across slots of several sizes, one of them larger than
  // a range, on the compute pool and at every tier: each step must equal
  // the oracle's serial per-element loop bit for bit. The gradients hold
  // zeros, ±subnormals, ±1e-300, huge values, ±inf and NaN, so moments
  // reach every lane guard of the corrected quotient; the second beta1
  // puts the bias correction below 2^-20, where every lane divides.
  const double kSpecial[] = {0.0,    -0.0,    5e-324, -5e-324, 0x1p-1030,
                             1e-300, -1e-300, 1e300,  -1e300,  0x1p1020,
                             kInf,   -kInf,   kNaN};
  constexpr size_t kNumSpecial = sizeof(kSpecial) / sizeof(kSpecial[0]);
  for (const double beta1 : {0.9, 1.0 - 1e-9}) {
    SCOPED_TRACE(::testing::Message() << "beta1 " << beta1);
    ForEachTier([&](TraceIsa) {
      Rng rng(106);
      std::vector<Matrix> params = {Matrix(61, 53), Matrix(2, 90),
                                    Matrix(1, 2)};
      std::vector<Matrix> grads = params;
      std::vector<Matrix> m = params;
      std::vector<Matrix> v = params;
      for (Matrix& p : params) p.RandomUniform(rng, 0.0, 1.0);
      std::vector<Matrix> want = params;
      AdamOptimizer adam(0.05, beta1);
      for (int step = 1; step <= 4; ++step) {
        std::vector<ParamSlot> slots;
        for (size_t i = 0; i < params.size(); ++i) {
          grads[i].RandomUniform(rng, -1.0, 1.0);
          for (size_t k = 0; k < grads[i].size(); ++k) {
            if (rng.Bernoulli(0.15)) {
              grads[i].data()[k] = kSpecial[rng.UniformInt(kNumSpecial)];
            }
          }
          slots.push_back({&params[i], &grads[i]});
        }
        {
          ScopedSharding sharding;
          adam.Step(slots);
        }
        for (size_t i = 0; i < params.size(); ++i) {
          oracle::AdamStep(0.05, beta1, 0.999, 1e-8, step, grads[i], &m[i],
                           &v[i], &want[i]);
          EXPECT_TRUE(BitEqual(params[i], want[i]))
              << "slot " << i << " step " << step;
        }
      }
    });
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

/// Two grafted steps of the packed step on `packed` against the same steps
/// through the public calls on `encoded`, the same rows as doubles: the
/// loss, every parameter and gradient, and Adam's moments must match bit
/// for bit after each step (the second starts from the first's moments).
/// The Matrix entry of GraftedStep, which packs a binary batch, must take
/// the same step.
void ExpectPackedStepMatchesPublicCalls(const LogicalNet& net,
                                        const Matrix& encoded,
                                        const PackedRows& packed,
                                        const std::vector<int>& labels) {
  LogicalNet stepped = net;
  LogicalNet called = net;
  LogicalNet via_matrix = net;
  AdamOptimizer step_adam(0.02);
  AdamOptimizer call_adam(0.02);
  AdamOptimizer matrix_adam(0.02);
  for (int step = 0; step < 2; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const double step_loss = GraftedStep(stepped, packed, labels, step_adam);
    const double matrix_loss =
        GraftedStep(via_matrix, encoded, labels, matrix_adam);
    LogicalNet::Cache cache;
    called.ForwardContinuous(encoded, &cache);
    const Matrix logits = called.ForwardDiscrete(encoded);
    Matrix dlogits;
    const double call_loss = SoftmaxCrossEntropy(logits, labels, &dlogits);
    called.ZeroGrads();
    called.Backward(cache, dlogits);
    call_adam.Step(called.ParamSlots());
    called.ProjectWeights();
    EXPECT_EQ(std::memcmp(&step_loss, &call_loss, sizeof(double)), 0)
        << step_loss << " vs " << call_loss;
    EXPECT_EQ(std::memcmp(&matrix_loss, &call_loss, sizeof(double)), 0);
    const std::vector<ParamSlot> got = stepped.ParamSlots();
    const std::vector<ParamSlot> want = called.ParamSlots();
    const std::vector<ParamSlot> matrix = via_matrix.ParamSlots();
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(step_adam.first_moments().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "slot " << i);
      EXPECT_TRUE(BitEqual(*got[i].param, *want[i].param));
      EXPECT_TRUE(BitEqual(*got[i].grad, *want[i].grad));
      EXPECT_TRUE(BitEqual(step_adam.first_moments()[i],
                           call_adam.first_moments()[i]));
      EXPECT_TRUE(BitEqual(step_adam.second_moments()[i],
                           call_adam.second_moments()[i]));
      EXPECT_TRUE(BitEqual(*matrix[i].param, *want[i].param));
    }
  }
}

void ExpectNetMatchesOracle(LogicalNet net, const Dataset& data) {
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    std::vector<size_t> rows(batch);
    for (size_t r = 0; r < batch; ++r) rows[r] = r % data.size();
    const Matrix encoded = net.EncodeBatch(data, rows);
    Dataset subset(data.schema());
    for (size_t r : rows) subset.AppendUnchecked(data.instance(r));
    // The training input: the same rows, encoded straight into bits.
    const PackedRows packed = net.encoder().EncodeDataset(subset);
    const std::vector<LogicLayer>& layers = net.logic_layers();

    // Continuous forward, layer by layer.
    LogicalNet::Cache cache;
    net.ForwardContinuous(encoded, &cache);
    std::vector<Matrix> want_out;
    const Matrix* in = &encoded;
    // Layer 0 reads the encoder's 0/1 output by its input layout.
    for (size_t l = 0; l < layers.size(); ++l) {
      want_out.push_back(
          l == 0 ? oracle::ForwardGrouped(layers[0].weights(),
                                          layers[0].num_conj(),
                                          layers[0].layout(), *in)
                 : oracle::ForwardContinuous(layers[l].weights(),
                                             layers[l].num_conj(), *in));
      in = &want_out.back();
      EXPECT_TRUE(BitEqual(cache.layer_out[l], want_out[l]));
    }

    // Discrete forward, the grafted step's forward, and the per-record
    // inference built on them.
    const Matrix want_rules = OracleRules(net, encoded);
    const Matrix logits = net.ForwardDiscrete(encoded);
    EXPECT_TRUE(BitEqual(logits, oracle::VoteForward(net.linear().weights(),
                                                     net.linear().bias(),
                                                     want_rules)));
    LogicalNet::Cache step_cache;
    EXPECT_TRUE(BitEqual(net.ForwardGrafted(packed, &step_cache), logits));
    ASSERT_EQ(step_cache.layer_out.size(), layers.size());
    for (size_t l = 0; l < layers.size(); ++l) {
      EXPECT_TRUE(BitEqual(step_cache.layer_out[l], want_out[l]));
    }
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
    // The vote layer reads the continuous rule vector.
    Matrix continuous_rules(batch, net.num_rules());
    for (size_t r = 0; r < batch; ++r) {
      size_t offset = 0;
      if (net.config().input_skip) {
        for (size_t c = 0; c < encoded.cols(); ++c) {
          continuous_rules(r, c) = encoded(r, c);
        }
        offset = encoded.cols();
      }
      for (const Matrix& out : want_out) {
        for (size_t c = 0; c < out.cols(); ++c) {
          continuous_rules(r, offset + c) = out(r, c);
        }
        offset += out.cols();
      }
    }
    Matrix want_vote_grads(2, net.num_rules());
    Matrix want_bias_grads(1, 2);
    const Matrix drules = oracle::VoteBackward(
        net.linear().weights(), continuous_rules, dlogits, &want_vote_grads,
        &want_bias_grads);
    {
      const std::vector<ParamSlot> slots = net.ParamSlots();
      EXPECT_TRUE(BitEqual(*slots[slots.size() - 2].grad, want_vote_grads));
      EXPECT_TRUE(BitEqual(*slots.back().grad, want_bias_grads));
    }
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
    // Layer 0 takes the grouped factored form.
    for (int l = static_cast<int>(layers.size()) - 1; l >= 0; --l) {
      Matrix want_grads(layers[l].out_dim(), layers[l].in_dim());
      if (l == 0) {
        oracle::BackwardWeightsGrouped(
            layers[0].weights(), layers[0].num_conj(), layers[0].layout(),
            encoded, want_out[0], dout[0], &want_grads);
      } else {
        const Matrix dx =
            oracle::Backward(layers[l].weights(), layers[l].num_conj(),
                             want_out[l - 1], want_out[l], dout[l],
                             &want_grads);
        dout[l - 1].Axpy(1.0, dx);
      }
      EXPECT_TRUE(
          BitEqual(net.mutable_logic_layers()[l].grads(), want_grads))
          << "layer " << l;
    }

    ExpectPackedStepMatchesPublicCalls(net, encoded, packed, labels);
  }
}

/// Trains a net from `config` at every tier: the trained parameters must
/// agree bit for bit across tiers, and every tier's kernels must match the
/// oracle on the trained net.
void ExpectTrainedNetsMatchOracle(const LogicalNetConfig& config, int epochs,
                                  const Dataset& data) {
  std::vector<double> first;
  ForEachTier([&](TraceIsa) {
    LogicalNet net(data.schema(), config);
    TrainConfig train;
    train.epochs = epochs;
    train.num_threads = 1;
    TrainGrafted(net, data, train);
    const std::vector<double> params = net.GetParameters();
    if (first.empty()) {
      first = params;
    } else {
      ASSERT_EQ(params.size(), first.size());
      EXPECT_EQ(std::memcmp(params.data(), first.data(),
                            params.size() * sizeof(double)),
                0)
          << "trained parameters differ from the first tier's";
    }
    ExpectNetMatchesOracle(net, data);
  });
}

LogicalNetConfig NetConfig(const std::vector<std::pair<int, int>>& shape) {
  LogicalNetConfig config;
  config.tau_d = 5;
  config.logic_layers = shape;
  config.seed = 21;
  return config;
}

TEST(LogicKernelTest, OneLayerTrainedNetMatchesOracle) {
  const Dataset data = TwoFeatureData(300, 5);
  ExpectTrainedNetsMatchOracle(NetConfig({{13, 11}}), 3, data);
}

TEST(LogicKernelTest, TwoLayerTrainedNetMatchesOracle) {
  const Dataset data = TwoFeatureData(300, 6);
  ExpectTrainedNetsMatchOracle(NetConfig({{13, 11}, {6, 5}}), 3, data);
}

TEST(LogicKernelTest, NetWithoutSkipMatchesOracle) {
  const Dataset data = TwoFeatureData(200, 7);
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{9, 7}, {5, 4}};
  config.input_skip = false;
  config.seed = 8;
  ExpectTrainedNetsMatchOracle(config, 2, data);
}

TEST(LogicKernelTest, NetsOnFallbackLanesMatchOracle) {
  // The packed step where it leaves the table and packed-vote paths:
  // non-finite layer-0 weights (their chunks run the generic loops on the
  // batch's bits), -0.0 weights, and infinite vote weights, whose NaN and
  // infinite logits send NaN and ±inf upstream gradients through every
  // layer (generic lanes, and every skip column of the vote gradient). A
  // step zeroes its gradients first; a packed backward onto gradients
  // holding -0.0 is BackwardAccumulatesOntoAnyGradients' case.
  const Dataset data = TwoFeatureData(300, 11);
  for (bool skip : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "skip " << skip);
    LogicalNetConfig config = NetConfig({{13, 11}, {6, 5}});
    config.input_skip = skip;
    LogicalNet trained(data.schema(), config);
    TrainConfig train;
    train.epochs = 2;
    train.num_threads = 1;
    TrainGrafted(trained, data, train);
    ForEachTier([&](TraceIsa) {
      for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE(::testing::Message() << "variant " << variant);
        LogicalNet net = trained;
        std::vector<double> params = net.GetParameters();
        // Layer 0's weights come first, node-major; the vote weights,
        // class-major, precede the two biases.
        const size_t in_dim = static_cast<size_t>(net.encoded_size());
        const size_t rules = static_cast<size_t>(net.num_rules());
        double* w0 = params.data();
        double* votes = params.data() + params.size() - 2 - 2 * rules;
        switch (variant) {
          case 0:
            w0[0] = kInf;
            w0[9 * in_dim + 3] = kNaN;
            w0[14 * in_dim + 1] = -kInf;
            break;
          case 1:
            w0[2 * in_dim + 1] = -0.0;
            w0[20 * in_dim + 4] = -0.0;
            votes[0] = -0.0;
            votes[rules + 1] = -0.0;
            break;
          case 2:
            votes[1] = kInf;
            votes[rules + 2] = -kInf;
            break;
        }
        net.SetParameters(params);
        ExpectNetMatchesOracle(net, data);
      }
    });
  }
}

// ---- Vote layer ------------------------------------------------------------

/// A copy of `net` whose vote weights (class-major, then the two biases)
/// are `votes`.
LogicalNet WithVotes(const LogicalNet& net, const std::vector<double>& votes) {
  LogicalNet out = net;
  std::vector<double> params = out.GetParameters();
  EXPECT_EQ(votes.size(), 2 * static_cast<size_t>(net.num_rules()));
  std::copy(votes.begin(), votes.end(), params.end() - votes.size() - 2);
  out.SetParameters(params);
  return out;
}

/// Every discrete-logit path of `net` on rows of `data` against
/// oracle::VoteForward on the oracle's rule rows.
void ExpectVotesMatchOracle(const LogicalNet& net, const Dataset& data) {
  const Matrix& w = net.linear().weights();
  const Matrix& b = net.linear().bias();
  for (size_t batch : kBatchSizes) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    std::vector<size_t> rows(batch);
    for (size_t r = 0; r < batch; ++r) rows[r] = (7 * r) % data.size();
    const Matrix encoded = net.EncodeBatch(data, rows);
    const Matrix want = oracle::VoteForward(w, b, OracleRules(net, encoded));
    EXPECT_TRUE(BitEqual(net.ForwardDiscrete(encoded), want));
    const PackedRows packed = Pack(encoded);
    LogicalNet::Cache cache;
    EXPECT_TRUE(BitEqual(net.ForwardGrafted(packed, &cache), want));
    Dataset subset(data.schema());
    for (size_t r : rows) subset.AppendUnchecked(data.instance(r));
    std::vector<uint8_t> predicted;
    net.InferDataset(subset, &predicted, nullptr);
    ASSERT_EQ(predicted.size(), batch);
    for (size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(predicted[r], want(r, 1) >= want(r, 0) ? 1 : 0)
          << "record " << r;
    }
  }
}

TEST(LogicKernelTest, VoteLayerMatchesOracle) {
  // The packed vote sums each record's on-rule weights from +0.0; the
  // dense product's off-rule terms are ±0.0 there. Vote weights of -0.0
  // and subnormals stay on the packed path, ±inf or NaN take the dense
  // fallback (an off rule's 0 * inf is NaN). Infinities and NaN weights
  // go in separate nets: where a NaN weight meets the NaN of 0 * inf, IEEE
  // 754 leaves open whose bits the sum keeps, and compilers order the
  // operands of an add freely.
  const Dataset data = TwoFeatureData(300, 9);
  LogicalNet trained(data.schema(), NetConfig({{13, 11}}));
  TrainConfig train;
  train.epochs = 2;
  train.num_threads = 1;
  TrainGrafted(trained, data, train);
  const std::vector<std::vector<double>> kSpecials = {
      {-0.0, 0.0, 5e-324, -5e-324, 0x1p-1030, 1e300, -1e300},
      {-0.0, 5e-324, 1e300, kInf, -kInf},
      {-0.0, 5e-324, kNaN}};
  ForEachTier([&](TraceIsa) {
    ExpectVotesMatchOracle(trained, data);
    Rng rng(111);
    const std::vector<double> base = [&] {
      const Matrix& w = trained.linear().weights();
      return std::vector<double>(w.data(), w.data() + w.size());
    }();
    for (size_t set = 0; set < kSpecials.size(); ++set) {
      SCOPED_TRACE(::testing::Message() << "special set " << set);
      const std::vector<double>& special = kSpecials[set];
      std::vector<double> votes = base;
      for (double& v : votes) {
        if (rng.Bernoulli(0.3)) v = special[rng.UniformInt(special.size())];
      }
      votes[3] = -0.0;
      votes[votes.size() - 1] = 5e-324;
      const LogicalNet net = WithVotes(trained, votes);
      EXPECT_EQ(net.linear().WeightsFinite(), set == 0);
      ExpectVotesMatchOracle(net, data);
    }
    // Only huge weights: sums overflow to ±inf on the packed path too.
    std::vector<double> huge(base.size());
    for (double& v : huge) v = rng.Bernoulli(0.5) ? 1e308 : -1e308;
    ExpectVotesMatchOracle(WithVotes(trained, huge), data);
  });
}

TEST(LogicKernelTest, VoteSkipGradientMatchesOracle) {
  // The vote layer's gradient over packed 0/1 columns adds each row's g
  // under the row's mask bytes, 64 columns at a time, rows ascending
  // (DESIGN.md §16.5). Zero g rows are skipped, and a NaN or infinite g
  // adds g * x to every column. 150 packed columns (three words, the last
  // partial, the middle one all zero) beside 7 fuzzy ones, batches of 1,
  // 63, 64 and 65: every tier must give the dense oracle's bits. NaN rows
  // and infinite ones go to different classes, so that no sum meets two
  // NaNs (IEEE 754 leaves open whose bits it keeps).
  constexpr int kPacked = 150;
  constexpr int kFuzzy = 7;
  ForEachTier([&](TraceIsa) {
    Rng rng(139);
    for (size_t batch : {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      LinearLayer layer(kPacked + kFuzzy, 2);
      layer.InitRandom(rng, 0.05);
      Matrix bits(batch, kPacked);
      for (size_t r = 0; r < batch; ++r) {
        for (int c = 0; c < kPacked; ++c) {
          if (c / 64 != 1 && rng.Bernoulli(0.4)) bits(r, c) = 1.0;
        }
      }
      PackedRows packed;
      ASSERT_TRUE(PackBinary(bits, &packed));
      const Matrix fuzzy = FuzzyInput(batch, kFuzzy, rng);
      Matrix dlogits(batch, 2);
      dlogits.RandomUniform(rng, -1.0, 1.0);
      for (size_t r = 0; r < batch; ++r) {
        const double u = rng.Uniform(0.0, 1.0);
        if (u < 0.1) {
          dlogits(r, 0) = 0.0;
        } else if (u < 0.2) {
          dlogits(r, 0) = kNaN;
        } else if (u < 0.3) {
          dlogits(r, 1) = rng.Bernoulli(0.5) ? kInf : -kInf;
        }
      }
      dlogits(batch - 1, 1) = kInf;
      Matrix rules(batch, kPacked + kFuzzy);
      for (size_t r = 0; r < batch; ++r) {
        for (int c = 0; c < kPacked; ++c) rules(r, c) = bits(r, c);
        for (int c = 0; c < kFuzzy; ++c) rules(r, kPacked + c) = fuzzy(r, c);
      }
      Matrix want_w(2, kPacked + kFuzzy);
      Matrix want_b(1, 2);
      oracle::VoteBackward(layer.weights(), rules, dlogits, &want_w, &want_b);
      layer.weight_grads().Fill(0.0);
      layer.bias_grads().Fill(0.0);
      layer.BackwardParams({LinearLayer::Columns{nullptr, &packed, 0},
                            LinearLayer::Columns{&fuzzy, nullptr, kPacked}},
                           dlogits);
      EXPECT_TRUE(BitEqual(layer.weight_grads(), want_w));
      EXPECT_TRUE(BitEqual(layer.bias_grads(), want_b));
    }
  });
}

TEST(LogicKernelTest, BackwardAccumulatesOntoAnyGradients) {
  // Backward adds to whatever the gradients hold. Layer 0's grouped path
  // starts its buckets at +0.0 and adds its quotients to the gradients
  // only where no gradient of the chunk is -0.0; nonzero values, and -0.0
  // that only ±0.0 terms reach, must still come out as the oracle
  // accumulates them.
  const Dataset data = TwoFeatureData(300, 10);
  LogicalNet trained(data.schema(), NetConfig({{13, 11}}));
  TrainConfig train;
  train.epochs = 2;
  train.num_threads = 1;
  TrainGrafted(trained, data, train);
  ForEachTier([&](TraceIsa) {
    Rng rng(112);
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE(::testing::Message() << "batch " << batch);
      std::vector<size_t> rows(batch);
      for (size_t r = 0; r < batch; ++r) rows[r] = (3 * r) % data.size();
      const Matrix encoded = trained.EncodeBatch(data, rows);
      std::vector<int> labels(batch);
      for (size_t r = 0; r < batch; ++r) {
        labels[r] = data.instance(rows[r]).label;
      }
      for (int start = 0; start < 3; ++start) {
        SCOPED_TRACE(::testing::Message() << "start " << start);
        LogicalNet net = trained;
        LogicLayer& layer = net.mutable_logic_layers()[0];
        Matrix want(layer.out_dim(), layer.in_dim());
        if (start == 1) want.RandomUniform(rng, -1.0, 1.0);
        if (start == 2) want.Fill(-0.0);
        if (start == 2) want(0, 0) = 0.0;  // one chunk all +0.0
        PackedRows packed;
        ASSERT_TRUE(PackBinary(encoded, &packed));
        LogicalNet::Cache cache;
        const Matrix logits = net.ForwardGrafted(packed, &cache);
        Matrix dlogits;
        SoftmaxCrossEntropy(logits, labels, &dlogits);
        net.ZeroGrads();
        layer.grads() = want;
        const std::vector<LogicLayer>& layers = net.logic_layers();
        const size_t offset = net.encoded_size();
        Matrix dout(batch, layer.out_dim());
        for (size_t r = 0; r < batch; ++r) {
          for (int k = 0; k < layer.out_dim(); ++k) {
            for (int c = 0; c < 2; ++c) {
              if (dlogits(r, c) == 0.0) continue;
              dout(r, k) +=
                  dlogits(r, c) * net.linear().weights()(c, offset + k);
            }
          }
        }
        oracle::BackwardWeightsGrouped(
            layers[0].weights(), layers[0].num_conj(), layers[0].layout(),
            encoded, cache.layer_out[0], dout, &want);
        net.Backward(cache, dlogits);
        EXPECT_TRUE(BitEqual(layer.grads(), want));
      }
    }
  });
}

}  // namespace
}  // namespace ctfl
