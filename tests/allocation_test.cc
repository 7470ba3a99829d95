#include "ctfl/core/allocation.h"

#include <numeric>

#include <gtest/gtest.h>

namespace ctfl {
namespace {

// Builds a TraceResult by hand; only the fields allocation reads matter.
TraceResult MakeTrace(int n, std::vector<TestTrace> tests) {
  TraceResult trace;
  trace.num_participants = n;
  trace.tests = std::move(tests);
  return trace;
}

TestTrace Correct(std::vector<int> related) {
  TestTrace t;
  t.correct = true;
  t.related_count = std::move(related);
  t.total_related = 0;
  for (int c : t.related_count) t.total_related += c;
  return t;
}

TestTrace Wrong(std::vector<int> related) {
  TestTrace t = Correct(std::move(related));
  t.correct = false;
  return t;
}

// Paper Example III.4: participants B and C match a test instance with 6
// and 2 related records; micro gives 6/8 and 2/8 of the 1/|D_te| credit,
// macro (delta = 2) splits it evenly.
TEST(AllocationTest, PaperExampleIII4) {
  // 4 test records; only the third has matches {A:0, B:6, C:2}.
  const TraceResult trace = MakeTrace(
      3, {Correct({0, 0, 0}), Correct({0, 0, 0}), Correct({0, 6, 2}),
          Correct({0, 0, 0})});
  const std::vector<double> micro = MicroAllocation(trace);
  EXPECT_NEAR(micro[1], 3.0 / 16, 1e-12);  // 1/4 * 6/8
  EXPECT_NEAR(micro[2], 1.0 / 16, 1e-12);  // 1/4 * 2/8
  EXPECT_NEAR(micro[0], 0.0, 1e-12);

  const std::vector<double> macro = MacroAllocation(trace, /*delta=*/2);
  EXPECT_NEAR(macro[1], 1.0 / 8, 1e-12);  // 1/4 * 1/2
  EXPECT_NEAR(macro[2], 1.0 / 8, 1e-12);
  EXPECT_NEAR(macro[0], 0.0, 1e-12);
}

// Regression pin for the Eq. 5/6 normalization convention: scores divide
// by |D_te| — ALL reserved test records — not by the number of tests with
// the matching outcome, and not by the number of matched tests. A correct
// split over {4 tests, 1 matched} therefore yields exactly 1/4 of the
// per-test credit, and adding wrong-outcome tests dilutes everyone.
TEST(AllocationTest, NormalizationDividesByAllTests) {
  // One matched correct test among one unmatched correct and two wrong.
  const TraceResult trace = MakeTrace(
      2, {Correct({3, 1}), Correct({0, 0}), Wrong({5, 5}), Wrong({2, 0})});
  const std::vector<double> micro = MicroAllocation(trace);
  EXPECT_NEAR(micro[0], 0.75 / 4, 1e-12);  // NOT 0.75 / 1 or 0.75 / 2
  EXPECT_NEAR(micro[1], 0.25 / 4, 1e-12);

  const std::vector<double> macro = MacroAllocation(trace, /*delta=*/1);
  EXPECT_NEAR(macro[0], 0.5 / 4, 1e-12);
  EXPECT_NEAR(macro[1], 0.5 / 4, 1e-12);

  // The wrong-outcome view normalizes by the same |D_te| = 4.
  const std::vector<double> micro_wrong =
      MicroAllocation(trace, /*on_correct=*/false);
  EXPECT_NEAR(micro_wrong[0], (0.5 + 1.0) / 4, 1e-12);
  EXPECT_NEAR(micro_wrong[1], 0.5 / 4, 1e-12);

  // Appending more wrong tests shrinks correct-side scores: the
  // denominator tracks the full test set.
  TraceResult diluted = trace;
  diluted.tests.push_back(Wrong({1, 1}));
  diluted.tests.push_back(Wrong({1, 1}));
  const std::vector<double> diluted_micro = MicroAllocation(diluted);
  EXPECT_NEAR(diluted_micro[0], 0.75 / 6, 1e-12);
  EXPECT_NEAR(diluted_micro[1], 0.25 / 6, 1e-12);
}

TEST(AllocationTest, MicroIsProportionalToRelatedCounts) {
  const TraceResult trace = MakeTrace(2, {Correct({3, 1})});
  const std::vector<double> micro = MicroAllocation(trace);
  EXPECT_NEAR(micro[0], 0.75, 1e-12);
  EXPECT_NEAR(micro[1], 0.25, 1e-12);
}

TEST(AllocationTest, MacroIgnoresVolumeBeyondDelta) {
  // Replication: participant 0 has 100 copies, participant 1 has 2.
  const TraceResult trace = MakeTrace(2, {Correct({100, 2})});
  const std::vector<double> macro = MacroAllocation(trace, 2);
  EXPECT_NEAR(macro[0], 0.5, 1e-12);
  EXPECT_NEAR(macro[1], 0.5, 1e-12);
}

TEST(AllocationTest, MacroDeltaExcludesThinParticipants) {
  const TraceResult trace = MakeTrace(2, {Correct({5, 1})});
  const std::vector<double> macro = MacroAllocation(trace, 2);
  EXPECT_NEAR(macro[0], 1.0, 1e-12);
  EXPECT_NEAR(macro[1], 0.0, 1e-12);
}

TEST(AllocationTest, OnlyMatchingOutcomeCounts) {
  const TraceResult trace =
      MakeTrace(2, {Correct({1, 0}), Wrong({0, 3}), Correct({1, 0})});
  const std::vector<double> gain = MicroAllocation(trace, true);
  const std::vector<double> loss = MicroAllocation(trace, false);
  EXPECT_NEAR(gain[0], 2.0 / 3, 1e-12);
  EXPECT_NEAR(gain[1], 0.0, 1e-12);
  EXPECT_NEAR(loss[0], 0.0, 1e-12);
  EXPECT_NEAR(loss[1], 1.0 / 3, 1e-12);
}

TEST(AllocationTest, UnmatchedCorrectTestsDistributeNothing) {
  const TraceResult trace = MakeTrace(2, {Correct({0, 0}), Correct({1, 1})});
  const std::vector<double> micro = MicroAllocation(trace);
  const double total = micro[0] + micro[1];
  EXPECT_NEAR(total, 0.5, 1e-12);  // only the matched test distributes
}

TEST(AllocationTest, GroupRationalityOverMatchedTests) {
  // Sum of micro scores equals (#correct matched tests) / |D_te|.
  const TraceResult trace = MakeTrace(
      3, {Correct({1, 2, 0}), Correct({0, 0, 4}), Wrong({5, 0, 0}),
          Correct({0, 0, 0})});
  const std::vector<double> micro = MicroAllocation(trace);
  EXPECT_NEAR(std::accumulate(micro.begin(), micro.end(), 0.0), 2.0 / 4,
              1e-12);
  const std::vector<double> macro = MacroAllocation(trace, 1);
  EXPECT_NEAR(std::accumulate(macro.begin(), macro.end(), 0.0), 2.0 / 4,
              1e-12);
}

TEST(AllocationTest, SweepMatchesIndividualCalls) {
  const TraceResult trace =
      MakeTrace(2, {Correct({4, 1}), Correct({2, 2}), Correct({0, 9})});
  const std::vector<int> deltas = {1, 2, 3, 5};
  const auto sweep = MacroAllocationSweep(trace, deltas);
  ASSERT_EQ(sweep.size(), deltas.size());
  for (size_t d = 0; d < deltas.size(); ++d) {
    const std::vector<double> single = MacroAllocation(trace, deltas[d]);
    for (int p = 0; p < 2; ++p) {
      EXPECT_NEAR(sweep[d][p], single[p], 1e-12) << "delta " << deltas[d];
    }
  }
}

TEST(AllocationTest, EmptyTraceGivesZeros) {
  const TraceResult trace = MakeTrace(3, {});
  EXPECT_EQ(MicroAllocation(trace), std::vector<double>(3, 0.0));
  EXPECT_EQ(MacroAllocation(trace, 1), std::vector<double>(3, 0.0));
}

}  // namespace
}  // namespace ctfl
