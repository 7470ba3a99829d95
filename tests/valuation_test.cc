#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "ctfl/valuation/individual.h"
#include "ctfl/valuation/least_core.h"
#include "ctfl/valuation/leave_one_out.h"
#include "ctfl/valuation/shapley.h"
#include "tabular_utility.h"

namespace ctfl {
namespace {

// Additive game: v(S) = sum of per-player values. Shapley = the values.
TabularUtility AdditiveGame(const std::vector<double>& values) {
  const int n = static_cast<int>(values.size());
  std::vector<double> table(1ULL << n, 0.0);
  for (uint64_t mask = 0; mask < table.size(); ++mask) {
    for (int i = 0; i < n; ++i) {
      if (mask & (1ULL << i)) table[mask] += values[i];
    }
  }
  return TabularUtility(n, std::move(table));
}

// Paper Table II game: A/B substitutable, C complementary.
TabularUtility PaperTableIIGame() {
  // masks: bit0=A, bit1=B, bit2=C.
  std::vector<double> v(8);
  v[0b000] = 0.50;
  v[0b001] = 0.80;  // A
  v[0b010] = 0.80;  // B
  v[0b100] = 0.65;  // C
  v[0b011] = 0.80;  // AB
  v[0b101] = 0.90;  // AC
  v[0b110] = 0.90;  // BC
  v[0b111] = 0.90;  // ABC
  return TabularUtility(3, std::move(v));
}

TEST(RankByScoreTest, DescendingStable) {
  const std::vector<int> order = RankByScore({0.1, 0.5, 0.5, 0.2});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(IndividualTest, ScoresAreSingletonValues) {
  TabularUtility game = PaperTableIIGame();
  IndividualScheme scheme;
  const ContributionResult result = scheme.Compute(game).value();
  EXPECT_EQ(result.scheme, "Individual");
  EXPECT_DOUBLE_EQ(result.scores[0], 0.80);
  EXPECT_DOUBLE_EQ(result.scores[1], 0.80);
  EXPECT_DOUBLE_EQ(result.scores[2], 0.65);
  EXPECT_EQ(result.coalitions_evaluated, 3);
}

TEST(LeaveOneOutTest, SubstitutableParticipantsGetZero) {
  TabularUtility game = PaperTableIIGame();
  LeaveOneOutScheme scheme;
  const ContributionResult result = scheme.Compute(game).value();
  // v(N) = 0.9; removing A: v(BC) = 0.9 -> 0 (paper's criticism of LOO).
  EXPECT_NEAR(result.scores[0], 0.0, 1e-12);
  EXPECT_NEAR(result.scores[1], 0.0, 1e-12);
  EXPECT_NEAR(result.scores[2], 0.9 - 0.8, 1e-12);
}

TEST(ShapleyExactTest, PaperTableIIValues) {
  TabularUtility game = PaperTableIIGame();
  const ContributionResult result =
      ShapleyValueScheme::ComputeExact(game).value();
  // Hand computation on Table II's utilities: phi(A) = phi(B) =
  // (2*0.30 + 0 + 0.25 + 0)/6 = 0.14167 and phi(C) =
  // (2*0.15 + 0.10 + 0.10 + 2*0.10)/6 = 0.11667. (The paper's in-text
  // Example II.1 numbers (11.7, 11.7, 16.6) satisfy efficiency but do not
  // follow from its own Table II; see EXPERIMENTS.md.)
  EXPECT_NEAR(result.scores[0], 0.85 / 6, 1e-9);
  EXPECT_NEAR(result.scores[1], 0.85 / 6, 1e-9);
  EXPECT_NEAR(result.scores[2], 0.70 / 6, 1e-9);
  // Efficiency: scores sum to v(N) - v(empty).
  const double total =
      std::accumulate(result.scores.begin(), result.scores.end(), 0.0);
  EXPECT_NEAR(total, 0.9 - 0.5, 1e-9);
}

TEST(ShapleyExactTest, AdditiveGameRecoversValues) {
  TabularUtility game = AdditiveGame({0.1, 0.3, 0.05, 0.2});
  const ContributionResult result =
      ShapleyValueScheme::ComputeExact(game).value();
  EXPECT_NEAR(result.scores[0], 0.1, 1e-9);
  EXPECT_NEAR(result.scores[1], 0.3, 1e-9);
  EXPECT_NEAR(result.scores[2], 0.05, 1e-9);
  EXPECT_NEAR(result.scores[3], 0.2, 1e-9);
}

TEST(ShapleyMonteCarloTest, ApproximatesExactOnRandomGame) {
  Rng rng(5);
  const int n = 5;
  std::vector<double> table(1ULL << n);
  // Monotone submodular-ish random game.
  for (uint64_t mask = 0; mask < table.size(); ++mask) {
    table[mask] = std::sqrt(static_cast<double>(std::popcount(mask))) +
                  0.05 * rng.Uniform();
  }
  table[0] = 0.0;
  TabularUtility exact_game(n, table);
  const ContributionResult exact =
      ShapleyValueScheme::ComputeExact(exact_game).value();

  TabularUtility mc_game(n, table);
  ShapleyValueScheme::Options options;
  options.budget_multiplier = 30.0;  // plenty of permutations
  options.truncation_tol = 0.0;      // no truncation for this check
  ShapleyValueScheme scheme(options);
  const ContributionResult approx = scheme.Compute(mc_game).value();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(approx.scores[i], exact.scores[i], 0.08) << "player " << i;
  }
}

TEST(ShapleyMonteCarloTest, SymmetricPlayersGetSimilarScores) {
  // Symmetric game: v(S) = |S|^2 / 100.
  const int n = 6;
  std::vector<double> table(1ULL << n);
  for (uint64_t mask = 0; mask < table.size(); ++mask) {
    const int k = std::popcount(mask);
    table[mask] = k * k / 100.0;
  }
  TabularUtility game(n, table);
  ShapleyValueScheme::Options options;
  options.budget_multiplier = 20.0;
  options.truncation_tol = 0.0;
  ShapleyValueScheme scheme(options);
  const ContributionResult result = scheme.Compute(game).value();
  for (int i = 1; i < n; ++i) {
    EXPECT_NEAR(result.scores[i], result.scores[0], 0.03);
  }
}

TEST(ShapleyMonteCarloTest, TruncationReducesEvaluations) {
  // Game that saturates immediately: any non-empty coalition has value 1.
  const int n = 8;
  std::vector<double> table(1ULL << n, 1.0);
  table[0] = 0.0;
  TabularUtility with_trunc(n, table);
  ShapleyValueScheme::Options opt_trunc;
  opt_trunc.truncation_tol = 1e-6;
  opt_trunc.seed = 5;
  const ContributionResult truncated =
      ShapleyValueScheme(opt_trunc).Compute(with_trunc).value();

  TabularUtility without_trunc(n, table);
  ShapleyValueScheme::Options opt_full;
  opt_full.truncation_tol = 0.0;
  opt_full.seed = 5;
  const ContributionResult full =
      ShapleyValueScheme(opt_full).Compute(without_trunc).value();
  EXPECT_LT(truncated.coalitions_evaluated, full.coalitions_evaluated);
}

TEST(LeastCoreTest, GloveGameSolution) {
  // Glove game: players {0,1} hold left gloves, {2} right. v(S) = 1 if S
  // contains a left and the right, else 0. Core: phi = (0, 0, 1).
  std::vector<double> v(8, 0.0);
  v[0b101] = 1.0;
  v[0b110] = 1.0;
  v[0b111] = 1.0;
  TabularUtility game(3, v);
  LeastCoreScheme::Options options;
  options.exact_limit = 8;
  LeastCoreScheme scheme(options);
  const ContributionResult result = scheme.Compute(game).value();
  const double total =
      std::accumulate(result.scores.begin(), result.scores.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  // The core gives (almost) everything to the scarce right glove.
  EXPECT_GT(result.scores[2], 0.6);
}

TEST(LeastCoreTest, EfficiencyHoldsOnSampledConstraints) {
  TabularUtility game = PaperTableIIGame();
  LeastCoreScheme::Options options;
  options.budget_multiplier = 2.0;
  LeastCoreScheme scheme(options);
  const ContributionResult result = scheme.Compute(game).value();
  const double total =
      std::accumulate(result.scores.begin(), result.scores.end(), 0.0);
  EXPECT_NEAR(total, 0.9, 1e-6);
}

TEST(LeastCoreTest, SymmetricGameGivesEqualScores) {
  const int n = 4;
  std::vector<double> table(1ULL << n);
  for (uint64_t mask = 0; mask < table.size(); ++mask) {
    table[mask] = static_cast<double>(std::popcount(mask)) / n;
  }
  TabularUtility game(n, table);
  LeastCoreScheme::Options options;
  options.exact_limit = 16;
  LeastCoreScheme scheme(options);
  const ContributionResult result = scheme.Compute(game).value();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(result.scores[i], 0.25, 1e-6);
  }
}

}  // namespace
}  // namespace ctfl
