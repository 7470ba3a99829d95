#include "ctfl/kernel/trace_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/allocation.h"
#include "ctfl/core/interpret.h"
#include "ctfl/core/pipeline.h"
#include "ctfl/core/tracer.h"
#include "ctfl/data/gen/synthetic.h"
#include "ctfl/fl/partition.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/serve/protocol.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/store/snapshot.h"
#include "ctfl/util/rng.h"
#include "test_paths.h"
#include "trace_compare.h"
#include "trace_oracle.h"

namespace ctfl {
namespace {

// ---------------------------------------------------------------------------
// Kernel unit tests: Match against the brute-force scalar loop on random
// bit-matrices, including trailing-block and early-decision edges.
// ---------------------------------------------------------------------------

struct RandomBucket {
  std::vector<Bitset> storage;
  std::vector<const Bitset*> refs;
};

RandomBucket MakeRandomBucket(size_t num_records, int num_rules,
                              double density, uint64_t seed) {
  RandomBucket bucket;
  Rng rng(seed);
  bucket.storage.reserve(num_records);
  for (size_t r = 0; r < num_records; ++r) {
    Bitset b(num_rules);
    for (int j = 0; j < num_rules; ++j) {
      if (rng.Bernoulli(density)) b.Set(j);
    }
    bucket.storage.push_back(std::move(b));
  }
  for (const Bitset& b : bucket.storage) bucket.refs.push_back(&b);
  return bucket;
}

std::vector<std::pair<int, double>> MakeSupport(int num_rules, size_t count,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, double>> supp;
  for (int j = 0; j < num_rules && supp.size() < count; ++j) {
    if (rng.Bernoulli(static_cast<double>(count) / num_rules)) {
      supp.emplace_back(j, 0.05 + rng.Uniform());
    }
  }
  if (supp.empty()) supp.emplace_back(0, 0.5);
  return supp;
}

// The scalar reference decision: ascending-order accumulation, then the
// tracer's Eq. 4 comparison.
bool ScalarRelated(const Bitset& act,
                   const std::vector<std::pair<int, double>>& supp,
                   double threshold) {
  double overlap = 0.0;
  for (const auto& [rule, weight] : supp) {
    if (act.Test(static_cast<size_t>(rule))) overlap += weight;
  }
  return !(overlap < threshold);
}

TEST(TraceKernelTest, MatchMatchesScalarOnRandomRecords) {
  const int num_rules = 48;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // 67 records: a full block plus a 3-lane trailing block.
    const RandomBucket bucket = MakeRandomBucket(67, num_rules, 0.35, seed);
    const TraceKernel kernel(bucket.refs, num_rules);
    ASSERT_EQ(kernel.num_records(), 67u);
    ASSERT_EQ(kernel.num_blocks(), 2u);

    const auto supp = MakeSupport(num_rules, 12, seed + 100);
    double weight_sum = 0.0;
    for (const auto& [rule, weight] : supp) weight_sum += weight;
    for (double tau : {0.3, 0.7, 1.0}) {
      const double threshold = tau * weight_sum - 1e-9;
      const TraceKernel::Support support =
          TraceKernel::Prepare(supp, threshold);
      std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
      TraceKernelStats stats;
      const size_t matched =
          kernel.Match(support, related.data(), &stats, {});

      size_t expected = 0;
      for (size_t r = 0; r < bucket.storage.size(); ++r) {
        const bool want =
            ScalarRelated(bucket.storage[r], supp, threshold);
        const bool got = (related[r / 64] >> (r % 64)) & 1;
        EXPECT_EQ(got, want) << "seed " << seed << " tau " << tau
                             << " record " << r;
        if (want) ++expected;
      }
      EXPECT_EQ(matched, expected);
      // Lanes past the trailing record must stay clear.
      EXPECT_EQ(related[1] >> 3, 0ULL);
      EXPECT_LE(stats.records_scanned, 67);
    }
  }
}

// A support whose heaviest rule decides every lane (the records it hits
// clear the threshold, the rest cannot reach it) leaves no block
// undecided after its first rule: each counts in blocks_pruned, and the
// related words are the scalar reference's. The name predates the
// retired candidate mask, whose empty blocks counted there too.
TEST(TraceKernelTest, CandidateMaskRestrictsAndPrunesBlocks) {
  const int num_rules = 32;
  const RandomBucket bucket = MakeRandomBucket(130, num_rules, 0.4, 11);
  const TraceKernel kernel(bucket.refs, num_rules);
  ASSERT_EQ(kernel.num_blocks(), 3u);

  std::vector<std::pair<int, double>> supp = {{3, 10.0}};
  for (int rule = 8; rule < 15; ++rule) supp.emplace_back(rule, 0.01);
  const double threshold = 0.5 * (10.0 + 7 * 0.01) - 1e-9;
  const TraceKernel::Support support = TraceKernel::Prepare(supp, threshold);
  for (const TraceIsa isa : AvailableTraceIsas()) {
    SCOPED_TRACE(TraceIsaName(isa));
    std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
    TraceKernelStats stats;
    kernel.Match(support, related.data(), &stats, {isa, 1});
    EXPECT_EQ(stats.blocks_pruned, 3);
    EXPECT_EQ(stats.exact_fallbacks, 0);
    EXPECT_EQ(stats.records_scanned, 130);
    for (size_t r = 0; r < bucket.storage.size(); ++r) {
      const bool want = ScalarRelated(bucket.storage[r], supp, threshold);
      const bool got = (related[r / 64] >> (r % 64)) & 1;
      EXPECT_EQ(got, want) << "record " << r;
    }
    EXPECT_EQ(related[2] >> 2, 0ULL);  // lanes past the last record
  }
}

// ---------------------------------------------------------------------------
// Soundness of the fixed-point bounds: adversarial weights and thresholds,
// each matched at every available tier at 1 and 8 threads and compared
// with the scalar reference record by record. The shared bucket is wide
// enough (2048 rules, so 64-block tiles, and 141 blocks) that 8 threads
// really split it, and its records repeat 97 activation patterns, so an
// achievable overlap is shared by many lanes at once.
// ---------------------------------------------------------------------------

constexpr int kSoundRules = 2048;

const RandomBucket& SoundnessBucket() {
  static const RandomBucket* bucket = [] {
    const RandomBucket patterns = MakeRandomBucket(97, kSoundRules, 0.4, 77);
    auto* b = new RandomBucket;
    b->storage.reserve(9000);
    for (size_t r = 0; r < 9000; ++r) {
      b->storage.push_back(patterns.storage[r % 97]);
    }
    for (const Bitset& bits : b->storage) b->refs.push_back(&bits);
    return b;
  }();
  return *bucket;
}

const TraceKernel& SoundnessKernel() {
  static const TraceKernel* kernel =
      new TraceKernel(SoundnessBucket().refs, kSoundRules);
  return *kernel;
}

/// Support over rules 0, stride, 2 * stride, ... with the given weights.
std::vector<std::pair<int, double>> SpreadSupport(
    const std::vector<double>& weights) {
  const int stride = kSoundRules / static_cast<int>(weights.size());
  std::vector<std::pair<int, double>> supp;
  for (size_t i = 0; i < weights.size(); ++i) {
    supp.emplace_back(static_cast<int>(i) * stride, weights[i]);
  }
  return supp;
}

/// Ascending-order overlap of pattern record `r` — an achievable sum.
double Overlap(const std::vector<std::pair<int, double>>& supp, size_t r) {
  double overlap = 0.0;
  for (const auto& [rule, weight] : supp) {
    if (SoundnessBucket().storage[r].Test(static_cast<size_t>(rule))) {
      overlap += weight;
    }
  }
  return overlap;
}

/// Matches `threshold` at every tier x {1, 8} threads; every decision must
/// be the scalar reference's and every work count the per-rule sweep's
/// (oracle::Sweep). Returns the sweep's stats.
TraceKernelStats ExpectScalarDecisionsEverywhere(
    const std::vector<std::pair<int, double>>& supp, double threshold,
    const std::string& label) {
  const RandomBucket& bucket = SoundnessBucket();
  const TraceKernel& kernel = SoundnessKernel();
  const TraceKernel::Support support = TraceKernel::Prepare(supp, threshold);
  std::vector<uint64_t> want(kernel.num_blocks(), 0);
  size_t want_matched = 0;
  for (size_t r = 0; r < bucket.storage.size(); ++r) {
    if (ScalarRelated(bucket.storage[r], supp, threshold)) {
      want[r / 64] |= 1ULL << (r % 64);
      ++want_matched;
    }
  }
  std::vector<uint64_t> swept(want.size());
  const TraceKernelStats base =
      oracle::Sweep(kernel, support, swept.data()).stats;
  EXPECT_EQ(swept, want) << label;
  for (const TraceIsa isa : AvailableTraceIsas()) {
    for (const int threads : {1, 8}) {
      std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
      TraceKernelStats stats;
      const size_t matched =
          kernel.Match(support, related.data(), &stats, {isa, threads});
      const std::string where = label + " " + TraceIsaName(isa) + " t" +
                                std::to_string(threads);
      EXPECT_EQ(matched, want_matched) << where;
      for (size_t b = 0; b < want.size(); ++b) {
        EXPECT_EQ(related[b], want[b]) << where << " block " << b;
      }
      EXPECT_EQ(stats.records_scanned, base.records_scanned) << where;
      EXPECT_EQ(stats.blocks_pruned, base.blocks_pruned) << where;
      EXPECT_EQ(stats.exact_fallbacks, base.exact_fallbacks) << where;
    }
  }
  return base;
}

/// Thresholds at pattern record r's achievable overlap and one ulp either
/// side, for a few r; returns the summed exact fallbacks.
int64_t ExpectTiesDecideLikeScalar(
    const std::vector<std::pair<int, double>>& supp,
    const std::string& label) {
  int64_t fallbacks = 0;
  for (const size_t r : {0, 5, 42}) {
    const double sum = Overlap(supp, r);
    for (const double threshold :
         {std::nextafter(sum, -1.0), sum, std::nextafter(sum, 1e300)}) {
      fallbacks += ExpectScalarDecisionsEverywhere(
                       supp, threshold,
                       label + " record " + std::to_string(r))
                       .exact_fallbacks;
    }
  }
  return fallbacks;
}

// Tie band: a threshold equal to an achievable ascending-order sum (or one
// ulp from it) is within the bounds' resolution of that sum, so those
// lanes must reach the exact scalar comparison — and decide as it does.
TEST(TraceKernelTest, PlusEpsGeModeMatchesScalarPrefilter) {
  Rng rng(22);
  std::vector<double> weights(24);
  for (double& w : weights) w = 0.05 + rng.Uniform();
  EXPECT_GT(ExpectTiesDecideLikeScalar(SpreadSupport(weights), "random"), 0);
}

TEST(TraceKernelTest, SubResolutionWeightsMatchScalarEverywhere) {
  // Differences of 2^-40 relative: far below the 2^-30 fixed-point step,
  // so q cannot tell the weights apart but the exact sums can.
  std::vector<double> weights;
  for (int i = 0; i < 16; ++i) {
    weights.push_back(0.5 + std::ldexp(static_cast<double>(i % 5) - 2, -40));
  }
  EXPECT_GT(ExpectTiesDecideLikeScalar(SpreadSupport(weights), "sub-res"),
            0);
}

TEST(TraceKernelTest, AllEqualWeightsMatchScalarEverywhere) {
  const auto supp = SpreadSupport(std::vector<double>(20, 0.1));
  EXPECT_GT(ExpectTiesDecideLikeScalar(supp, "equal"), 0);
  // Every count of hits: k * 0.1 summed in order, and both neighbours.
  double sum = 0.0;
  for (int k = 0; k <= 20; ++k) {
    ExpectScalarDecisionsEverywhere(supp, sum, "k " + std::to_string(k));
    sum += 0.1;
  }
}

TEST(TraceKernelTest, HeavyAndTinyWeightsMatchScalarEverywhere) {
  std::vector<double> weights(48, 1e-6);
  weights[7] = 1000.0;
  const auto supp = SpreadSupport(weights);
  EXPECT_GT(ExpectTiesDecideLikeScalar(supp, "heavy"), 0);
  for (const double threshold : {1000.0, 1000.0 + 5e-6, 2e-5, 1e-6}) {
    ExpectScalarDecisionsEverywhere(supp, threshold, "heavy fixed");
  }
}

TEST(TraceKernelTest, ZeroQuantizedWeightsMatchScalarEverywhere) {
  // W ~ 1e6 puts the scale near 2^10, so every 1e-12 weight has q == 0:
  // only the +1-per-rule slack of the kill bound covers them.
  std::vector<double> weights(30, 1e-12);
  weights[3] = 1e6;
  const auto supp = SpreadSupport(weights);
  EXPECT_GT(ExpectTiesDecideLikeScalar(supp, "q0"), 0);
  for (const double threshold : {1e6, 3e-12, 1e-12, 0.0, 5e-324}) {
    ExpectScalarDecisionsEverywhere(supp, threshold, "q0 fixed");
  }
}

TEST(TraceKernelTest, PowerOfTwoWeightSumsMatchScalarEverywhere) {
  // W exactly 2 (the scale's edge) and one ulp below it.
  std::vector<double> at = {1.0, 0.5, 0.25, 0.125, 0.0625, 0.0625};
  std::vector<double> below = at;
  below.back() = std::nextafter(below.back(), 0.0);
  for (const auto& weights : {at, below}) {
    double w = 0.0;
    for (double x : weights) w += x;
    ASSERT_LE(w, 2.0);
    const auto supp = SpreadSupport(weights);
    EXPECT_GT(ExpectTiesDecideLikeScalar(supp, "pow2"), 0);
    for (const double threshold : {w, 1.0, 1.5, 0.0625}) {
      ExpectScalarDecisionsEverywhere(supp, threshold, "pow2 fixed");
    }
  }
}

TEST(TraceKernelTest, SupportSizesMatchScalarEverywhere) {
  // 0 rules: the empty overlap 0 decides alone.
  for (const double threshold : {-1e-9, 0.0, 1e-9}) {
    ExpectScalarDecisionsEverywhere({}, threshold, "empty");
  }
  // 1 rule and every rule.
  ExpectTiesDecideLikeScalar({{17, 0.75}}, "one");
  Rng rng(5);
  std::vector<double> weights(kSoundRules);
  for (double& w : weights) w = rng.Uniform();
  const auto all = SpreadSupport(weights);
  ASSERT_EQ(all.size(), static_cast<size_t>(kSoundRules));
  const double sum = Overlap(all, 3);
  EXPECT_GT(ExpectScalarDecisionsEverywhere(all, sum, "all").exact_fallbacks,
            0);
  ExpectScalarDecisionsEverywhere(all, std::nextafter(sum, 1e300), "all+");
}

TEST(TraceKernelTest, TauWExtremesMatchScalarEverywhere) {
  Rng rng(6);
  std::vector<double> weights(40);
  for (double& w : weights) w = 0.01 + rng.Uniform();
  const auto supp = SpreadSupport(weights);
  double weight_sum = 0.0;
  for (const auto& [rule, weight] : supp) weight_sum += weight;
  // The tracer's comparison value tau_w * W - 1e-9 at tau_w 0 and 1.
  const TraceKernelStats all =
      ExpectScalarDecisionsEverywhere(supp, -1e-9, "tau 0");
  EXPECT_EQ(all.exact_fallbacks, 0);
  ExpectScalarDecisionsEverywhere(supp, weight_sum - 1e-9, "tau 1");
}

TEST(TraceKernelTest, UnboundableSupportsTakeTheExactComparison) {
  const auto supp = SpreadSupport({0.5, 0.25, 0.125});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double threshold :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    const TraceKernelStats stats =
        ExpectScalarDecisionsEverywhere(supp, threshold, "non-finite");
    EXPECT_EQ(stats.exact_fallbacks, stats.records_scanned);
  }
  const auto negative = SpreadSupport({0.5, -0.25, 0.125});
  ExpectScalarDecisionsEverywhere(negative, 0.3, "negative weight");
  const auto nan_weight =
      SpreadSupport({0.5, std::numeric_limits<double>::quiet_NaN()});
  ExpectScalarDecisionsEverywhere(nan_weight, 0.3, "nan weight");
}

TEST(TraceKernelTest, EmptyKernelAndEmptySupport) {
  const TraceKernel empty(std::vector<const Bitset*>{}, 16);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.num_blocks(), 0u);
  const TraceKernel::Support support =
      TraceKernel::Prepare({{0, 1.0}}, 0.5);
  TraceKernelStats stats;
  EXPECT_EQ(empty.Match(support, nullptr, &stats, {}), 0u);

  // Empty support with threshold <= 0: every record matches (the scalar
  // comparison !(0 < threshold) accepts).
  const RandomBucket bucket = MakeRandomBucket(70, 16, 0.3, 31);
  const TraceKernel kernel(bucket.refs, 16);
  const TraceKernel::Support zero = TraceKernel::Prepare({}, -1e-9);
  std::vector<uint64_t> related(kernel.num_blocks(), 0);
  EXPECT_EQ(kernel.Match(zero, related.data(), nullptr, {}), 70u);
}

// The transposed pack against the per-bit pack, word for word: rule
// counts below, at and past a word column, a model's 253 and 4,100 (whose
// tiles are narrower than its bucket, so it spans several tiles and a
// zero-padded tail); buckets that are empty, one lane, whole blocks and a
// partial last block. Random words at three densities, all-zero and
// all-one records included.
TEST(TraceKernelTest, TransposedPackMatchesPerBitPack) {
  Rng rng(97);
  for (const int num_rules : {1, 63, 64, 65, 253, 4100}) {
    for (const size_t num_records :
         {size_t{0}, size_t{1}, size_t{100}, size_t{128}, size_t{3000}}) {
      if (num_records == 3000 && num_rules != 4100) continue;
      SCOPED_TRACE(std::to_string(num_rules) + " rules, " +
                   std::to_string(num_records) + " records");
      std::vector<Bitset> storage;
      storage.reserve(num_records);
      for (size_t r = 0; r < num_records; ++r) {
        std::vector<uint64_t> words((num_rules + 63) / 64);
        for (uint64_t& w : words) {
          switch (r % 5) {
            case 0: w = 0; break;
            case 1: w = ~0ULL; break;
            case 2: w = rng.Next() & rng.Next(); break;
            default: w = rng.Next(); break;
          }
        }
        if (num_rules % 64 != 0) {
          words.back() &= ~0ULL >> (64 - num_rules % 64);
        }
        storage.push_back(
            Bitset::FromWords(num_rules, std::move(words)).value());
      }
      std::vector<const Bitset*> refs;
      for (const Bitset& b : storage) refs.push_back(&b);
      const TraceKernel kernel(refs, num_rules);
      const oracle::PackedBits want = oracle::Pack(refs, num_rules);
      ASSERT_EQ(kernel.num_records(), num_records);
      ASSERT_EQ(kernel.num_blocks(), want.full_mask.size());
      if (num_records == 3000) {
        ASSERT_GT(kernel.num_blocks(), kernel.tile_blocks());
        ASSERT_NE(kernel.num_blocks() % kernel.tile_blocks(), 0u);
      }
      for (size_t b = 0; b < kernel.num_blocks(); ++b) {
        ASSERT_EQ(kernel.full_mask_word(b), want.full_mask[b]) << b;
        for (int rule = 0; rule < num_rules; ++rule) {
          ASSERT_EQ(kernel.rule_word(rule, b), want.rows[rule][b])
              << "rule " << rule << " block " << b;
        }
      }
    }
  }
}

// The retired kernel selector lives on only as a reserved wire byte: the
// last byte of an EVALUATE body and of every lookup's options (whose other
// reserved byte once selected the posting prefilter). Encoders write 1;
// decoders reject anything else, so each request has one encoding.
TEST(TraceKernelTest, ParseAndName) {
  serve::Request evaluate;
  evaluate.op = serve::Op::kEvaluate;
  serve::Request lookup;
  lookup.op = serve::Op::kRelatedForTest;
  lookup.related_for_test.options.max_records = 7;
  for (const serve::Request& request : {evaluate, lookup}) {
    std::string bytes = serve::EncodeRequest(request);
    EXPECT_EQ(bytes.back(), 1) << serve::OpName(request.op);
    ASSERT_TRUE(serve::DecodeRequest(bytes).ok());
    for (const char bad : {0, 2}) {
      bytes.back() = bad;
      EXPECT_FALSE(serve::DecodeRequest(bytes).ok())
          << serve::OpName(request.op) << " kernel byte " << int{bad};
    }
  }
  // u8 version | u8 op | u64 id | u64 test index | f64 tau_w | reserved.
  std::string bytes = serve::EncodeRequest(lookup);
  const size_t index_byte = 1 + 1 + 8 + 8 + 8;
  EXPECT_EQ(bytes[index_byte], 1);
  bytes[index_byte] = 0;
  EXPECT_FALSE(serve::DecodeRequest(bytes).ok());
}

TEST(TraceKernelTest, TraceIsaParseAndName) {
  EXPECT_EQ(ParseTraceIsa("scalar").value(), TraceIsa::kScalar);
  EXPECT_EQ(ParseTraceIsa("neon").value(), TraceIsa::kNeon);
  EXPECT_EQ(ParseTraceIsa("avx2").value(), TraceIsa::kAvx2);
  EXPECT_EQ(ParseTraceIsa("avx512").value(), TraceIsa::kAvx512);
  // "auto" is a CLI sentinel (keep the process-wide dispatch), not a tier.
  EXPECT_FALSE(ParseTraceIsa("auto").ok());
  EXPECT_FALSE(ParseTraceIsa("sse2").ok());
  for (const TraceIsa isa : AvailableTraceIsas()) {
    EXPECT_EQ(ParseTraceIsa(TraceIsaName(isa)).value(), isa);
    EXPECT_TRUE(TraceIsaAvailable(isa));
  }
  // The scalar tier exists everywhere and every list starts with it.
  const std::vector<TraceIsa> available = AvailableTraceIsas();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), TraceIsa::kScalar);
  EXPECT_TRUE(TraceIsaAvailable(BestAvailableTraceIsa()));
}

// Every available SIMD tier at every thread count must reproduce the
// per-rule sweep (oracle::Sweep) cell-for-cell: same related words, same
// match count, same stats (the ordered stripe commit makes
// records_scanned / blocks_pruned / exact_fallbacks schedule-independent).
TEST(TraceKernelTest, IsaThreadsMatrixIsBitIdentical) {
  const int num_rules = 96;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    // 1500 records: many blocks, so thread sharding gets real stripes.
    const RandomBucket bucket =
        MakeRandomBucket(1500, num_rules, 0.3, seed * 7 + 1);
    const TraceKernel kernel(bucket.refs, num_rules);
    const auto supp = MakeSupport(num_rules, 24, seed + 50);
    double weight_sum = 0.0;
    for (const auto& [rule, weight] : supp) weight_sum += weight;
    for (double tau : {0.4, 0.8}) {
      const double threshold = tau * weight_sum - 1e-9;
      const TraceKernel::Support support =
          TraceKernel::Prepare(supp, threshold);

      std::vector<uint64_t> baseline(kernel.num_blocks(), 0);
      const oracle::SweepResult sweep =
          oracle::Sweep(kernel, support, baseline.data());
      const size_t base_matched = sweep.related;
      const TraceKernelStats& base_stats = sweep.stats;

      for (const TraceIsa isa : AvailableTraceIsas()) {
        for (int threads : {1, 2, 8}) {
          std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
          TraceKernelStats stats;
          const size_t matched =
              kernel.Match(support, related.data(), &stats, {isa, threads});
          EXPECT_EQ(matched, base_matched)
              << TraceIsaName(isa) << " t" << threads << " seed " << seed
              << " tau " << tau;
          EXPECT_EQ(related, baseline)
              << TraceIsaName(isa) << " t" << threads << " seed " << seed
              << " tau " << tau;
          EXPECT_EQ(stats.records_scanned, base_stats.records_scanned)
              << TraceIsaName(isa) << " t" << threads;
          EXPECT_EQ(stats.blocks_pruned, base_stats.blocks_pruned)
              << TraceIsaName(isa) << " t" << threads;
          EXPECT_EQ(stats.exact_fallbacks, base_stats.exact_fallbacks)
              << TraceIsaName(isa) << " t" << threads;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint schedule against the per-rule sweep: seeded random supports
// and buckets, each matched at every available tier x threads {1, 2, 8}
// and compared with oracle::Sweep word for word and counter for counter.
// Every tier runs one stripe body, so only a reference outside it can
// catch a counter bug in it. Buckets are composed from lanes whose
// decision point is known, so blocks whose last lane the bounds decide
// exactly after m - 1 and exactly after m sorted rules occur throughout.
// ---------------------------------------------------------------------------

constexpr int kSweepRules = 2048;  // 64-block tiles: large buckets shard
constexpr int kSweepCandidates = 48;
constexpr int kSweepStride = kSweepRules / kSweepCandidates;

/// Sorted rules after which the bounds decide `record` on its own: 0 when
/// the c = 0 checkpoint decides every lane, m + 1 when no bound does.
size_t DecidedAfter(const TraceKernel::Support& s, const Bitset& record) {
  const size_t m = s.sorted_rules.size();
  if (s.accept_q <= 0 || s.kill_q[0] > 0) return 0;
  int64_t q = 0;
  for (size_t c = 1; c <= m; ++c) {
    if (record.Test(static_cast<size_t>(s.sorted_rules[c - 1]))) {
      q += s.sorted_q[c - 1];
    }
    if ((c >= s.accept_from && q >= s.accept_q) || q < s.kill_q[c]) {
      return c;
    }
  }
  return m + 1;
}

/// m distinct candidate rules, ascending, weighted by `kind`: 0 random, 1
/// all equal, 2 one heavy rule among light ones, 3 random with one NaN or
/// infinite weight.
std::vector<std::pair<int, double>> SweepSupport(size_t m, int kind,
                                                 Rng& rng) {
  std::vector<int> rules;
  for (int i = 0; i < kSweepCandidates; ++i) rules.push_back(i * kSweepStride);
  for (size_t i = 0; i < m; ++i) {
    std::swap(rules[i], rules[i + rng.UniformInt(rules.size() - i)]);
  }
  rules.resize(m);
  std::sort(rules.begin(), rules.end());
  std::vector<std::pair<int, double>> supp;
  for (size_t i = 0; i < m; ++i) {
    double w = 0.05 + rng.Uniform();
    if (kind == 1) w = 0.25;
    if (kind == 2) w = i == m / 2 ? 50.0 : 0.01 * (1 + rng.UniformInt(5));
    supp.emplace_back(rules[i], w);
  }
  if (kind == 3 && m > 0) {
    supp[rng.UniformInt(m)].second =
        rng.Bernoulli(0.5) ? std::numeric_limits<double>::quiet_NaN()
                           : std::numeric_limits<double>::infinity();
  }
  return supp;
}

/// Coverage of the schedule's edges over the whole test.
struct SweepCoverage {
  int64_t at_m_minus_1_small = 0;  // m in 2..3
  int64_t at_m_small = 0;
  int64_t at_m_minus_1_large = 0;  // m ~ 40
  int64_t at_m_large = 0;
  int64_t accept_all = 0;
  int64_t reject_all = 0;
  int64_t unboundable = 0;
  int64_t blocks_pruned = 0;
  int64_t exact_fallbacks = 0;
  int64_t sharded = 0;
};

void ExpectScheduleMatchesSweep(const std::vector<std::pair<int, double>>& supp,
                                double threshold,
                                const std::vector<Bitset>& pool, bool large,
                                Rng& rng, SweepCoverage* coverage) {
  const TraceKernel::Support s = TraceKernel::Prepare(supp, threshold);
  const size_t m = s.sorted_rules.size();
  std::vector<size_t> at(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) at[i] = DecidedAfter(s, pool[i]);

  // Three random blocks, then blocks decided last exactly after m - 1 and
  // exactly after m rules (when the pool has such lanes), then repeats up
  // to 520 blocks for a large bucket, then a trailing partial block.
  std::vector<const Bitset*> refs;
  for (int l = 0; l < 3 * 64; ++l) {
    refs.push_back(&pool[rng.UniformInt(pool.size())]);
  }
  for (const size_t last : {m - 1, m}) {
    if (m == 0) break;
    std::vector<size_t> by_last;
    std::vector<size_t> exactly;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (at[i] <= last) by_last.push_back(i);
      if (at[i] == last) exactly.push_back(i);
    }
    if (exactly.empty()) continue;
    refs.push_back(&pool[exactly[rng.UniformInt(exactly.size())]]);
    for (int l = 1; l < 64; ++l) {
      refs.push_back(&pool[by_last[rng.UniformInt(by_last.size())]]);
    }
  }
  const size_t composed = refs.size();
  while (large && refs.size() < 520 * 64) {
    refs.push_back(refs[refs.size() % composed]);
  }
  const size_t partial = 1 + rng.UniformInt(63);
  for (size_t l = 0; l < partial; ++l) {
    refs.push_back(&pool[rng.UniformInt(pool.size())]);
  }

  const TraceKernel kernel(refs, kSweepRules);
  std::vector<uint64_t> want(kernel.num_blocks());
  const oracle::SweepResult sweep = oracle::Sweep(kernel, s, want.data());
  for (const TraceIsa isa : AvailableTraceIsas()) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << TraceIsaName(isa) << " t" << threads << " m " << m
                   << " threshold " << threshold << " blocks "
                   << kernel.num_blocks());
      std::vector<uint64_t> related(kernel.num_blocks(), ~0ULL);
      TraceKernelStats stats;
      EXPECT_EQ(kernel.Match(s, related.data(), &stats, {isa, threads}),
                sweep.related);
      EXPECT_EQ(related, want);
      EXPECT_EQ(stats.records_scanned, sweep.stats.records_scanned);
      EXPECT_EQ(stats.blocks_pruned, sweep.stats.blocks_pruned);
      EXPECT_EQ(stats.exact_fallbacks, sweep.stats.exact_fallbacks);
    }
  }
  const bool small = m <= 3;
  (small ? coverage->at_m_minus_1_small : coverage->at_m_minus_1_large) +=
      sweep.last_decided_at_m_minus_1;
  (small ? coverage->at_m_small : coverage->at_m_large) +=
      sweep.last_decided_at_m;
  coverage->accept_all += s.accept_q == 0;
  coverage->reject_all += s.kill_q[0] > 0;
  coverage->unboundable += !supp.empty() && m == 0;
  coverage->blocks_pruned += sweep.stats.blocks_pruned;
  coverage->exact_fallbacks += sweep.stats.exact_fallbacks;
  coverage->sharded += kernel.num_blocks() >= 8 * 64;
}

TEST(TraceKernelTest, CheckpointScheduleMatchesPerRuleSweep) {
  SweepCoverage coverage;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(900 + seed);
    for (const size_t m : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{38 + rng.UniformInt(5)}}) {
      for (int kind = 0; kind < 4; ++kind) {
        const auto supp = SweepSupport(m, kind, rng);
        double weight_sum = 0.0;
        for (const auto& entry : supp) weight_sum += entry.second;
        // Lanes in sorted order (descending weight) for the planted
        // patterns; a support Prepare cannot bound keeps its own order.
        std::vector<int> order = TraceKernel::Prepare(supp, 0.0).sorted_rules;
        if (order.empty()) {
          for (const auto& entry : supp) order.push_back(entry.first);
        }
        std::vector<Bitset> pool;
        const auto add_lane = [&](auto hit) {
          Bitset lane(kSweepRules);
          for (size_t i = 0; i < order.size(); ++i) {
            if (hit(i)) lane.Set(static_cast<size_t>(order[i]));
          }
          // Candidates outside the support: noise the kernel must ignore.
          for (int i = 0; i < kSweepCandidates; ++i) {
            if (rng.Bernoulli(0.3)) lane.Set(i * kSweepStride + 1);
          }
          pool.push_back(std::move(lane));
        };
        for (const double density : {0.05, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0}) {
          for (int k = 0; k < 24; ++k) {
            add_lane([&](size_t) { return rng.Bernoulli(density); });
          }
        }
        for (size_t k = 0; k < order.size(); ++k) {
          add_lane([&](size_t i) { return i != k; });  // all but one
          add_lane([&](size_t i) { return i < k; });   // a prefix
        }
        // An achievable ascending-order overlap: a tie the bounds leave
        // to the exact comparison.
        const Bitset& tied = pool[rng.UniformInt(pool.size())];
        double tie = 0.0;
        for (const auto& [rule, weight] : supp) {
          if (tied.Test(static_cast<size_t>(rule))) tie += weight;
        }
        std::vector<double> thresholds;
        for (const double tau : {0.0, 0.3, 0.9, 1.0}) {
          thresholds.push_back(tau * weight_sum - 1e-9);
        }
        thresholds.push_back(weight_sum + 1.0);  // kill_q[0] > 0
        thresholds.push_back(tie);               // the exact fallback
        for (size_t t = 0; t < thresholds.size(); ++t) {
          const bool large = seed == 0 && (t == 1 || t == 2);
          ExpectScheduleMatchesSweep(supp, thresholds[t], pool, large, rng,
                                     &coverage);
        }
      }
    }
  }
  EXPECT_GT(coverage.at_m_minus_1_small, 0);
  EXPECT_GT(coverage.at_m_small, 0);
  EXPECT_GT(coverage.at_m_minus_1_large, 0);
  EXPECT_GT(coverage.at_m_large, 0);
  EXPECT_GT(coverage.accept_all, 0);
  EXPECT_GT(coverage.reject_all, 0);
  EXPECT_GT(coverage.unboundable, 0);
  EXPECT_GT(coverage.blocks_pruned, 0);
  EXPECT_GT(coverage.exact_fallbacks, 0);
  EXPECT_GT(coverage.sharded, 0);
}

// ---------------------------------------------------------------------------
// Differential suite: the tracer must reproduce the brute-force Eq. 4
// oracle (trace_oracle.h) across the full configuration matrix — tau_w x
// oracle keying x DP x threads, each with and without the Max-Miner
// soundness check below. The case names keep their historical
// "BlockedMatchesLegacy" form.
// ---------------------------------------------------------------------------

struct DiffCase {
  double tau_w;
  /// The oracle keys tests as the tracer does (every field bit for bit)
  /// or gives every test a key of its own (every field keying leaves
  /// alone bit for bit; the legs named "_nodedup").
  bool oracle_dedup;
  /// Also recount the related sets through Max-Miner's prefilter.
  bool check_max_miner;
  // ctest registers each case under gtest's print of its raw bytes as
  // well as its name. Explicit zeros in place of the padding keep those
  // bytes the same from build to build.
  uint8_t zero_pad[6];
  double dp_epsilon;
  int num_threads;
  int32_t zero_tail;
};
static_assert(sizeof(DiffCase) == 32);

std::vector<DiffCase> FullMatrix() {
  std::vector<DiffCase> cases;
  for (double tau_w : {0.3, 0.7, 1.0}) {
    for (bool dedup : {false, true}) {
      for (bool max_miner : {false, true}) {
        for (double dp : {0.0, 2.0}) {
          for (int threads : {1, 8}) {
            cases.push_back({tau_w, dedup, max_miner, {}, dp, threads, 0});
          }
        }
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const DiffCase& c = info.param;
  std::string name = "tau" + std::to_string(static_cast<int>(c.tau_w * 10));
  name += c.oracle_dedup ? "_dedup" : "_nodedup";
  name += c.check_max_miner ? "_miner" : "_nominer";
  name += c.dp_epsilon > 0 ? "_dp" : "_nodp";
  name += "_t" + std::to_string(c.num_threads);
  return name;
}

class TraceKernelDifferentialTest
    : public ::testing::TestWithParam<DiffCase> {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.schema = std::make_shared<FeatureSchema>(
        std::vector<FeatureSpec>{
            FeatureSchema::Continuous("x", 0, 1),
            FeatureSchema::Discrete("d", {"p", "q", "r"}),
        },
        "neg", "pos");
    spec.samplers = {
        FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
        FeatureSampler{FeatureSampler::Kind::kCategorical, 0, 0, {}}};
    spec.rules = {{{{0, GtPredicate::Op::kGt, 0.6}}, 1, 1.0},
                  {{{0, GtPredicate::Op::kLt, 0.3}}, 0, 1.0},
                  {{{1, GtPredicate::Op::kEq, 2}}, 1, 0.5}};
    spec.label_noise = 0.05;
    Rng rng(606);
    const Dataset all = GenerateSynthetic(spec, 700, rng);
    Rng prng(607);
    federation_ = new Federation(
        MakeFederation(PartitionSkewLabel(all, 4, 0.8, prng)));
    test_ = new Dataset(GenerateSynthetic(spec, 180, rng));

    LogicalNetConfig config;
    config.logic_layers = {{16, 16}};
    config.seed = 13;
    net_ = new LogicalNet(spec.schema, config);
    TrainConfig tc;
    tc.epochs = 12;
    tc.learning_rate = 0.05;
    TrainGrafted(*net_, MergeFederation(*federation_), tc);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete test_;
    delete federation_;
    net_ = nullptr;
    test_ = nullptr;
    federation_ = nullptr;
  }

  static Federation* federation_;
  static Dataset* test_;
  static LogicalNet* net_;
};

Federation* TraceKernelDifferentialTest::federation_ = nullptr;
Dataset* TraceKernelDifferentialTest::test_ = nullptr;
LogicalNet* TraceKernelDifferentialTest::net_ = nullptr;

// Max-Miner grouping (src/ctfl/mining/, the paper's acceleration) no longer
// prefilters tracing, but while the module lives its theta-prefilter must
// stay sound: every record related to a member of a group passes the
// group's prefilter. Recounts each grouped test's related records among
// its group's candidates only; the counts must equal the trace's. Returns
// how many tests a prefilter with theta > 0 covered.
size_t ExpectMaxMinerPrefilterSound(const LogicalNet& net,
                                    const Federation& fed,
                                    const Dataset& test,
                                    const TracerConfig& config,
                                    const TraceResult& trace) {
  const int num_rules = net.num_rules();
  std::vector<double> weights(num_rules, 0.0);
  Bitset mask[2] = {Bitset(num_rules), Bitset(num_rules)};
  for (int j = 0; j < num_rules; ++j) {
    if (net.RuleWeight(j) < config.min_rule_weight) continue;
    weights[j] = net.RuleWeight(j);
    mask[net.RuleClass(j)].Set(j);
  }
  const std::vector<std::vector<Bitset>> uploads =
      ContributionTracer::ComputeUploadActivations(net, fed, config);
  size_t covered = 0;
  for (int c = 0; c < 2; ++c) {
    // The class's distinct weighted supports and the tests holding each.
    std::vector<Bitset> supports;
    std::vector<std::vector<size_t>> holders;
    for (size_t t = 0; t < test.size(); ++t) {
      const LogicalNet::Inference inference = net.Infer(test.instance(t));
      if (inference.predicted != c) continue;
      Bitset support = inference.activation;
      support &= mask[c];
      double weight = 0.0;
      support.ForEachSetBit([&](size_t j) { weight += weights[j]; });
      if (weight <= 0.0) continue;
      const auto it = std::find(supports.begin(), supports.end(), support);
      if (it == supports.end()) {
        supports.push_back(std::move(support));
        holders.push_back({t});
      } else {
        holders[it - supports.begin()].push_back(t);
      }
    }
    // Mine every class, however few its supports.
    GroupingConfig grouping = config.grouping;
    grouping.min_instances = 1;
    for (const TestGroup& group :
         GroupActivations(supports, weights, config.tau_w, grouping)) {
      if (group.theta <= 0.0) continue;
      for (size_t member : group.members) {
        const Bitset& support = supports[member];
        double weight_sum = 0.0;
        support.ForEachSetBit([&](size_t j) { weight_sum += weights[j]; });
        const double threshold = config.tau_w * weight_sum - 1e-9;
        std::vector<int> counts(fed.size(), 0);
        for (size_t p = 0; p < fed.size(); ++p) {
          for (size_t i = 0; i < uploads[p].size(); ++i) {
            if (fed[p].data.instance(i).label != c) continue;
            const Bitset& activation = uploads[p][i];
            double prefilter = 0.0;
            for (int item : group.frequent_subset) {
              if (activation.Test(item)) prefilter += weights[item];
            }
            if (!(prefilter + 1e-9 >= group.theta)) continue;
            double overlap = 0.0;
            support.ForEachSetBit([&](size_t j) {
              if (activation.Test(j)) overlap += weights[j];
            });
            if (!(overlap < threshold)) ++counts[p];
          }
        }
        for (size_t t : holders[member]) {
          EXPECT_EQ(counts, trace.tests[t].related_count) << "test " << t;
          ++covered;
        }
      }
    }
  }
  return covered;
}

TEST_P(TraceKernelDifferentialTest, BlockedMatchesLegacyBitIdentically) {
  const DiffCase& c = GetParam();
  TracerConfig config;
  config.tau_w = c.tau_w;
  config.dp_epsilon = c.dp_epsilon;
  config.num_threads = c.num_threads;

  const TraceResult blocked =
      ContributionTracer(net_, federation_, config).Trace(*test_);
  // DP perturbation is seeded per participant (dp_seed + p), so the
  // oracle matches against the very uploads the tracer drew.
  const TraceResult expected = oracle::Trace(
      *net_, oracle::Labels(*federation_),
      ContributionTracer::ComputeUploadActivations(*net_, *federation_,
                                                   config),
      oracle::Forwards(*net_, *test_), config, c.oracle_dedup);
  if (c.oracle_dedup) {
    ExpectTracesIdentical(expected, blocked, /*with_kernel_work=*/false);
  } else {
    ExpectTracesEquivalentUpToKeying(expected, blocked);
  }
  EXPECT_LE(blocked.records_scanned, blocked.tau_w_checks);
  if (c.check_max_miner) {
    EXPECT_GT(ExpectMaxMinerPrefilterSound(*net_, *federation_, *test_,
                                           config, blocked),
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, TraceKernelDifferentialTest,
                         ::testing::ValuesIn(FullMatrix()), CaseName);

// ---------------------------------------------------------------------------
// Query-engine leg: every lookup and every evaluation must agree with the
// brute-force oracle over the bundle's own uploads, and with the
// originating tracer.
// ---------------------------------------------------------------------------

class TraceKernelQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.schema = std::make_shared<FeatureSchema>(
        std::vector<FeatureSpec>{
            FeatureSchema::Continuous("x", 0, 1),
            FeatureSchema::Continuous("y", 0, 1),
        },
        "neg", "pos");
    spec.samplers = {
        FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}},
        FeatureSampler{FeatureSampler::Kind::kUniform, 0, 0, {}}};
    spec.rules = {{{{0, GtPredicate::Op::kGt, 0.5}}, 1, 1.0},
                  {{{0, GtPredicate::Op::kLt, 0.5}}, 0, 1.0}};
    Rng rng(71);
    const Dataset all = GenerateSynthetic(spec, 500, rng);
    Rng prng(72);
    Federation fed = MakeFederation(PartitionSkewSample(all, 4, 0.7, prng));
    Dataset test = GenerateSynthetic(spec, 140, rng);

    CtflConfig config;
    config.federated = false;
    config.central.epochs = 12;
    config.central.learning_rate = 0.05;
    config.net.logic_layers = {{10, 10}};
    config.net.seed = 7;
    config.tracer.tau_w = 0.85;
    config.bundle_out = TestTempPath("trace_kernel_query.ctflb");
    report_ = new CtflReport(RunCtfl(fed, test, config).value());
    ASSERT_TRUE(report_->bundle_status.ok()) << report_->bundle_status;
    content_ = new store::BundleContent(
        store::ReadBundle(config.bundle_out).value());
    engine_ = new store::QueryEngine(
        store::QueryEngine::Open(config.bundle_out).value());
    for (const store::ParticipantRecords& records : content_->participants) {
      labels_.push_back(records.labels);
      uploads_.push_back(records.activations);
    }
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete content_;
    delete report_;
    engine_ = nullptr;
    content_ = nullptr;
    report_ = nullptr;
    labels_.clear();
    uploads_.clear();
  }

  static CtflReport* report_;
  static store::BundleContent* content_;
  static store::QueryEngine* engine_;
  static std::vector<std::vector<uint8_t>> labels_;
  static std::vector<std::vector<Bitset>> uploads_;
};

CtflReport* TraceKernelQueryTest::report_ = nullptr;
store::BundleContent* TraceKernelQueryTest::content_ = nullptr;
store::QueryEngine* TraceKernelQueryTest::engine_ = nullptr;
std::vector<std::vector<uint8_t>> TraceKernelQueryTest::labels_;
std::vector<std::vector<Bitset>> TraceKernelQueryTest::uploads_;

TEST_F(TraceKernelQueryTest, RelatedAgreesAcrossKernelsAndWithTracer) {
  for (size_t t = 0; t < content_->tests.size(); ++t) {
    SCOPED_TRACE(t);
    const store::TestRecord& test = content_->tests[t];
    for (const double tau_w : {-1.0, 0.7}) {
      store::QueryOptions options;
      options.tau_w = tau_w;
      options.max_records = 1 << 20;
      const store::RelatedResult got = engine_->RelatedForTest(t, options);
      const TraceLookup want = oracle::Lookup(
          engine_->model(), labels_, uploads_, test.activation,
          test.predicted, tau_w < 0.0 ? engine_->origin_tau_w() : tau_w,
          content_->meta.min_rule_weight, options.max_records);
      EXPECT_EQ(got.predicted, test.predicted);
      EXPECT_EQ(got.support_size, want.support_size);
      EXPECT_EQ(got.support_weight, want.support_weight);
      EXPECT_EQ(got.related_count, want.related_count);
      EXPECT_EQ(got.total_related, want.total_related);
      ASSERT_EQ(got.records.size(), want.records.size());
      for (size_t i = 0; i < want.records.size(); ++i) {
        EXPECT_EQ(got.records[i].participant, want.records[i].first);
        EXPECT_EQ(got.records[i].local_index, want.records[i].second);
      }
      EXPECT_EQ(got.bucket_size, want.bucket_size);
      EXPECT_EQ(got.tau_w_checks, want.tau_w_checks);
      EXPECT_LE(got.records_scanned, got.tau_w_checks);
      EXPECT_EQ(got.postings_scanned, 0);
      EXPECT_EQ(got.candidates_pruned, 0);
      if (tau_w < 0.0) {
        EXPECT_EQ(got.related_count, report_->trace.tests[t].related_count);
      }
    }
  }
}

TEST_F(TraceKernelQueryTest, EvaluateAgreesAcrossKernels) {
  for (const double tau_w : {-1.0, 0.7}) {
    SCOPED_TRACE(tau_w);
    store::EvalOptions options;
    options.tau_w = tau_w;
    const store::QueryReport report = engine_->Evaluate(options);
    TracerConfig config;
    config.tau_w = report.tau_w;
    config.min_rule_weight = content_->meta.min_rule_weight;
    const TraceResult trace = oracle::Trace(engine_->model(), labels_,
                                            uploads_, content_->tests, config);
    EXPECT_EQ(report.micro, MicroAllocation(trace));
    EXPECT_EQ(report.macro, MacroAllocation(trace, report.delta));
    EXPECT_EQ(report.global_accuracy, trace.global_accuracy);
    EXPECT_EQ(report.matched_accuracy, trace.matched_accuracy);
    EXPECT_EQ(report.uncovered_tests, trace.uncovered_tests);
    EXPECT_EQ(report.keys, trace.num_keys);
    EXPECT_EQ(report.tau_w_checks, trace.tau_w_checks);
    EXPECT_LE(report.records_scanned, report.tau_w_checks);
    const std::vector<ParticipantProfile> profiles =
        BuildProfiles(trace, options.top_k);
    ASSERT_EQ(report.participants.size(), profiles.size());
    for (size_t p = 0; p < profiles.size(); ++p) {
      EXPECT_EQ(report.participants[p].useless_ratio,
                profiles[p].useless_ratio);
      ASSERT_EQ(report.participants[p].beneficial.size(),
                profiles[p].beneficial.size());
      for (size_t i = 0; i < profiles[p].beneficial.size(); ++i) {
        EXPECT_EQ(report.participants[p].beneficial[i].rule,
                  profiles[p].beneficial[i].rule);
        EXPECT_EQ(report.participants[p].beneficial[i].frequency,
                  profiles[p].beneficial[i].weighted_frequency);
      }
      ASSERT_EQ(report.participants[p].harmful.size(),
                profiles[p].harmful.size());
      for (size_t i = 0; i < profiles[p].harmful.size(); ++i) {
        EXPECT_EQ(report.participants[p].harmful[i].rule,
                  profiles[p].harmful[i].rule);
        EXPECT_EQ(report.participants[p].harmful[i].frequency,
                  profiles[p].harmful[i].weighted_frequency);
      }
    }
  }
  // At the originating parameters the evaluation also reproduces the
  // originating run exactly.
  const store::QueryReport report = engine_->Evaluate();
  EXPECT_EQ(report.micro, report_->micro_scores);
  EXPECT_EQ(report.macro, report_->macro_scores);
}

}  // namespace
}  // namespace ctfl
