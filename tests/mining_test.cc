#include <algorithm>

#include <gtest/gtest.h>

#include "ctfl/mining/max_miner.h"
#include "ctfl/util/rng.h"

namespace ctfl {
namespace {

Bitset MakeTransaction(size_t num_items, std::vector<int> items) {
  Bitset t(num_items);
  for (int i : items) t.Set(i);
  return t;
}

// Classic 5-transaction example over items {0..4}.
std::vector<Bitset> ClassicDb() {
  return {
      MakeTransaction(5, {0, 1, 4}),
      MakeTransaction(5, {1, 3}),
      MakeTransaction(5, {1, 2}),
      MakeTransaction(5, {0, 1, 3}),
      MakeTransaction(5, {0, 2}),
  };
}

// Support of an itemset: the size of the intersection of its tidsets (all
// transactions for the empty set).
size_t Support(const VerticalDb& db, const Itemset& itemset) {
  Bitset tids(db.num_transactions());
  for (size_t t = 0; t < db.num_transactions(); ++t) tids.Set(t);
  for (int item : itemset) tids &= db.tidset(item);
  return tids.Count();
}

// Classic level-wise Apriori: all itemsets with support >= min_support (a
// count), capped at `max_len` items (-1 = unbounded). The reference miner
// that Max-Miner is checked against.
std::vector<Itemset> AprioriFrequent(const VerticalDb& db,
                                     size_t min_support, int max_len = -1) {
  std::vector<Itemset> result;
  std::vector<Itemset> level;
  for (int item = 0; item < static_cast<int>(db.num_items()); ++item) {
    if (db.Support(item) >= min_support) level.push_back({item});
  }
  int length = 1;
  while (!level.empty() && (max_len < 0 || length <= max_len)) {
    result.insert(result.end(), level.begin(), level.end());
    if (max_len >= 0 && length == max_len) break;

    // Candidate generation: join sets sharing the first k-1 items, then
    // count the candidate's support directly (cheap with tidsets).
    std::vector<Itemset> next;
    for (size_t a = 0; a < level.size(); ++a) {
      for (size_t b = a + 1; b < level.size(); ++b) {
        const Itemset& x = level[a];
        const Itemset& y = level[b];
        if (!std::equal(x.begin(), x.end() - 1, y.begin())) continue;
        Itemset candidate = x;
        candidate.push_back(y.back());
        if (candidate[candidate.size() - 2] > candidate.back()) {
          std::swap(candidate[candidate.size() - 2], candidate.back());
        }
        if (Support(db, candidate) >= min_support) {
          next.push_back(std::move(candidate));
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    level = std::move(next);
    ++length;
  }
  return result;
}

TEST(VerticalDbTest, SupportCounting) {
  const VerticalDb db(ClassicDb(), 5);
  EXPECT_EQ(db.num_transactions(), 5u);
  EXPECT_EQ(db.Support(1), 4u);
  EXPECT_EQ(db.Support(0), 3u);
  EXPECT_EQ(Support(db, Itemset{0, 1}), 2u);
  EXPECT_EQ(Support(db, Itemset{1, 3}), 2u);
  EXPECT_EQ(Support(db, Itemset{0, 1, 4}), 1u);
  EXPECT_EQ(Support(db, Itemset{}), 5u);
}

TEST(IsSubsetOfTest, Basics) {
  EXPECT_TRUE(IsSubsetOf({1, 3}, {0, 1, 3, 4}));
  EXPECT_FALSE(IsSubsetOf({1, 5}, {0, 1, 3, 4}));
  EXPECT_TRUE(IsSubsetOf({}, {0}));
}

TEST(AprioriTest, ClassicExampleMinSupport2) {
  const VerticalDb db(ClassicDb(), 5);
  std::vector<Itemset> frequent = AprioriFrequent(db, 2);
  std::sort(frequent.begin(), frequent.end());
  const std::vector<Itemset> expected = {
      {0}, {0, 1}, {1}, {1, 2}, {1, 3}, {2}, {3}, {4}};
  // {4} has support 1 -> should be absent. Recompute expectations:
  // items: 0:3, 1:4, 2:2, 3:2, 4:1. Pairs with support>=2: {0,1}:2,
  // {1,2}:1? t3 = {1,2} only -> support 1. {1,3}:2.
  const std::vector<Itemset> truth = {{0}, {0, 1}, {1}, {1, 3}, {2}, {3}};
  (void)expected;
  EXPECT_EQ(frequent, truth);
}

TEST(AprioriTest, MaxLenCapsItemsets) {
  const VerticalDb db(ClassicDb(), 5);
  const std::vector<Itemset> frequent = AprioriFrequent(db, 1, /*max_len=*/1);
  for (const Itemset& s : frequent) EXPECT_EQ(s.size(), 1u);
}

TEST(MaximalOnlyTest, RemovesSubsumed) {
  std::vector<Itemset> sets = {{0}, {0, 1}, {1}, {2}, {0, 1, 2}};
  const std::vector<Itemset> maximal = MaximalOnly(sets);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0], (Itemset{0, 1, 2}));
}

TEST(MaxMinerTest, ClassicExample) {
  const VerticalDb db(ClassicDb(), 5);
  std::vector<Itemset> maximal = MaxMinerMaximal(db, 2);
  std::sort(maximal.begin(), maximal.end());
  // Frequent: {0},{1},{2},{3},{0,1},{1,3}. Maximal: {0,1},{1,3},{2}.
  const std::vector<Itemset> truth = {{0, 1}, {1, 3}, {2}};
  EXPECT_EQ(maximal, truth);
}

TEST(MaxMinerTest, LookAheadCollapsesUniformDb) {
  // All transactions identical: the single maximal set is the whole
  // itemset, found via the look-ahead in one step.
  std::vector<Bitset> transactions(6, MakeTransaction(8, {1, 3, 5, 7}));
  const VerticalDb db(transactions, 8);
  const std::vector<Itemset> maximal = MaxMinerMaximal(db, 3);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0], (Itemset{1, 3, 5, 7}));
}

TEST(MaxMinerTest, EmptyWhenNothingFrequent) {
  std::vector<Bitset> transactions = {MakeTransaction(4, {0}),
                                      MakeTransaction(4, {1})};
  const VerticalDb db(transactions, 4);
  EXPECT_TRUE(MaxMinerMaximal(db, 2).empty());
}

// Property: Max-Miner equals the maximal filter of Apriori on random DBs.
class MaxMinerEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxMinerEquivalence, AgreesWithAprioriMaximal) {
  Rng rng(GetParam());
  const size_t num_items = 10 + rng.UniformInt(6);
  const size_t num_transactions = 30 + rng.UniformInt(40);
  std::vector<Bitset> transactions;
  for (size_t t = 0; t < num_transactions; ++t) {
    Bitset row(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(0.3)) row.Set(i);
    }
    transactions.push_back(std::move(row));
  }
  const VerticalDb db(transactions, num_items);
  const size_t min_support = 2 + rng.UniformInt(5);

  std::vector<Itemset> expected =
      MaximalOnly(AprioriFrequent(db, min_support));
  std::vector<Itemset> actual = MaxMinerMaximal(db, min_support);
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected) << "items=" << num_items
                              << " minsup=" << min_support;
}

INSTANTIATE_TEST_SUITE_P(RandomDbs, MaxMinerEquivalence,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace ctfl
