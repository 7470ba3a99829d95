// KendallTau (core/rank_agreement.h): the ranking agreement the drift
// report of `ctfl_replay compare` prints.

#include "ctfl/core/rank_agreement.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace ctfl {
namespace {

TEST(RankAgreementTest, IdenticalOrdersGiveOne) {
  const std::vector<double> a = {0.3, 0.1, 0.7, 0.2, 0.9};
  EXPECT_EQ(KendallTau(a, a), 1.0);
  // Only the order counts, not the values.
  EXPECT_EQ(KendallTau(a, {3.0, 1.0, 7.0, 2.0, 9.0}), 1.0);
}

TEST(RankAgreementTest, ReversedOrdersGiveMinusOne) {
  const std::vector<double> a = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(KendallTau(a, {6, 5, 4, 3, 2, 1}), -1.0);
}

TEST(RankAgreementTest, OneAdjacentSwapOfEight) {
  // 28 pairs: the swapped one is discordant, the other 27 concordant.
  const std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> b = {1, 2, 3, 5, 4, 6, 7, 8};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 26.0 / 28.0);
}

TEST(RankAgreementTest, TiesAreNeitherConcordantNorDiscordant) {
  // 6 pairs; b ties items 0 and 1, so 5 pairs count there, all concordant:
  // tau-b = 5 / sqrt(6 * 5).
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {1, 1, 3, 4};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 5.0 / std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(KendallTau(b, a), KendallTau(a, b));
  // The same tie in both: 5 concordant of 5 untied pairs.
  EXPECT_DOUBLE_EQ(KendallTau(b, b), 1.0);
}

TEST(RankAgreementTest, DegenerateInputsAreDefined) {
  EXPECT_EQ(KendallTau({}, {}), 1.0);
  EXPECT_EQ(KendallTau({0.5}, {0.25}), 1.0);
  // Every pair tied in both vectors: nothing disagrees.
  EXPECT_EQ(KendallTau({2, 2, 2}, {0, 0, 0}), 1.0);
  // Every pair tied in one vector only: no association.
  EXPECT_EQ(KendallTau({2, 2, 2}, {1, 2, 3}), 0.0);
  EXPECT_EQ(KendallTau({1, 2, 3}, {0, 0, 0}), 0.0);
}

}  // namespace
}  // namespace ctfl
