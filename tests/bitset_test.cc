#include "ctfl/util/bitset.h"

#include <gtest/gtest.h>

#include "ctfl/util/rng.h"

namespace ctfl {
namespace {

TEST(BitsetTest, StartsEmpty) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitsetTest, SetTestClear) {
  Bitset b(100);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(BitsetTest, AndCountAcrossWordBoundaries) {
  Bitset a(200), b(200);
  for (size_t i = 0; i < 200; i += 3) a.Set(i);
  for (size_t i = 0; i < 200; i += 5) b.Set(i);
  size_t expected = 0;
  for (size_t i = 0; i < 200; i += 15) ++expected;
  EXPECT_EQ(a.AndCount(b), expected);
  EXPECT_EQ(b.AndCount(a), expected);
}

TEST(BitsetTest, Contains) {
  Bitset super(80), sub(80);
  super.Set(3);
  super.Set(70);
  super.Set(12);
  sub.Set(3);
  sub.Set(70);
  EXPECT_TRUE(super.Contains(sub));
  EXPECT_FALSE(sub.Contains(super));
  EXPECT_TRUE(super.Contains(super));
  Bitset empty(80);
  EXPECT_TRUE(super.Contains(empty));
}

TEST(BitsetTest, AndOrOperators) {
  Bitset a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(2);
  Bitset and_result = a;
  and_result &= b;
  EXPECT_EQ(and_result.Count(), 1u);
  EXPECT_TRUE(and_result.Test(65));
  Bitset or_result = a;
  or_result |= b;
  EXPECT_EQ(or_result.Count(), 3u);
}

TEST(BitsetTest, SetBitsAscending) {
  Bitset b(150);
  b.Set(149);
  b.Set(0);
  b.Set(64);
  const std::vector<size_t> bits = b.SetBits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 0u);
  EXPECT_EQ(bits[1], 64u);
  EXPECT_EQ(bits[2], 149u);
}

TEST(BitsetTest, ForEachSetBitMatchesSetBits) {
  Bitset b(150);
  b.Set(149);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(127);
  b.Set(128);
  std::vector<size_t> visited;
  b.ForEachSetBit([&](size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, b.SetBits());
}

TEST(BitsetTest, ForEachSetBitEmptyAndFull) {
  Bitset empty(130);
  size_t calls = 0;
  empty.ForEachSetBit([&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);

  // Full bitset with a partial trailing word: every index visited once,
  // ascending, none past size().
  Bitset full(67);
  for (size_t i = 0; i < 67; ++i) full.Set(i);
  std::vector<size_t> visited;
  full.ForEachSetBit([&](size_t i) { visited.push_back(i); });
  ASSERT_EQ(visited.size(), 67u);
  for (size_t i = 0; i < 67; ++i) EXPECT_EQ(visited[i], i);
}

TEST(BitsetTest, ForEachSetBitTrailingWordEdge) {
  // Sizes that land exactly on / just past a word boundary.
  for (size_t size : {64u, 65u, 128u, 129u}) {
    Bitset b(size);
    b.Set(size - 1);
    std::vector<size_t> visited;
    b.ForEachSetBit([&](size_t i) { visited.push_back(i); });
    ASSERT_EQ(visited.size(), 1u) << "size=" << size;
    EXPECT_EQ(visited[0], size - 1) << "size=" << size;
  }
}

TEST(BitsetTest, AndWordsInto) {
  Bitset b(130);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  ASSERT_EQ(b.word_count(), 3u);
  std::vector<uint64_t> dst = {~0ULL, ~0ULL, ~0ULL};
  b.AndWordsInto(dst.data());
  EXPECT_EQ(dst[0], 1ULL);
  EXPECT_EQ(dst[1], 1ULL);
  EXPECT_EQ(dst[2], 1ULL << 1);
}

TEST(BitsetTest, AndWordsIntoMatchesAndOperator) {
  Rng rng(7);
  const size_t size = 64 + rng.UniformInt(200);
  Bitset a(size), b(size);
  for (size_t i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.4)) a.Set(i);
    if (rng.Bernoulli(0.4)) b.Set(i);
  }
  std::vector<uint64_t> dst = a.words();
  b.AndWordsInto(dst.data());
  Bitset reference = a;
  reference &= b;
  EXPECT_EQ(dst, reference.words());
}

TEST(BitsetTest, EqualityAndHash) {
  Bitset a(66), b(66);
  a.Set(65);
  b.Set(65);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(1);
  EXPECT_FALSE(a == b);
}

TEST(BitsetTest, ToStringOrder) {
  Bitset b(5);
  b.Set(0);
  b.Set(3);
  EXPECT_EQ(b.ToString(), "10010");
}

// Property: AndCount agrees with a naive bit loop on random bitsets.
class BitsetRandomProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitsetRandomProperty, AndCountMatchesNaive) {
  Rng rng(GetParam());
  const size_t size = 64 + rng.UniformInt(200);
  Bitset a(size), b(size);
  for (size_t i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.3)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
  }
  size_t naive = 0;
  for (size_t i = 0; i < size; ++i) {
    if (a.Test(i) && b.Test(i)) ++naive;
  }
  EXPECT_EQ(a.AndCount(b), naive);
  // Contains is equivalent to AndCount(sub) == sub.Count().
  EXPECT_EQ(a.Contains(b), a.AndCount(b) == b.Count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetRandomProperty,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace ctfl
