#ifndef CTFL_TESTS_TRACE_COMPARE_H_
#define CTFL_TESTS_TRACE_COMPARE_H_

// Every-field equality of tracing results and query reports: the
// bit-identity contract that the tracer, the query engine and the
// streaming scorer share (DESIGN.md §9/§10). Doubles compare by bit
// pattern, never by tolerance.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/allocation.h"
#include "ctfl/core/tracer.h"
#include "ctfl/nn/matrix.h"
#include "ctfl/store/query_engine.h"

namespace ctfl {

/// Bitwise equality for double vectors (EXPECT_EQ would accept -0.0 vs
/// +0.0; the determinism contract is *bit* identity).
inline ::testing::AssertionResult BitIdentical(const std::vector<double>& a,
                                               const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first bit difference at index " << i << ": " << a[i]
               << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

inline std::vector<double> Cells(const Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.size());
}

/// Every TraceResult field but the wall time. `with_kernel_work = false`
/// skips the blocked kernel's own work counters (records_scanned,
/// blocks_pruned, exact_fallbacks), which a scalar oracle does not have.
inline void ExpectTracesIdentical(const TraceResult& base,
                                  const TraceResult& other,
                                  bool with_kernel_work = true) {
  EXPECT_EQ(base.num_participants, other.num_participants);
  EXPECT_EQ(base.num_rules, other.num_rules);
  ASSERT_EQ(base.tests.size(), other.tests.size());
  for (size_t t = 0; t < base.tests.size(); ++t) {
    SCOPED_TRACE(t);
    EXPECT_EQ(base.tests[t].predicted, other.tests[t].predicted);
    EXPECT_EQ(base.tests[t].correct, other.tests[t].correct);
    EXPECT_EQ(base.tests[t].support_size, other.tests[t].support_size);
    EXPECT_EQ(base.tests[t].related_count, other.tests[t].related_count);
    EXPECT_EQ(base.tests[t].total_related, other.tests[t].total_related);
  }
  EXPECT_EQ(base.train_match_correct, other.train_match_correct);
  EXPECT_EQ(base.train_match_miss, other.train_match_miss);
  EXPECT_EQ(base.beneficial_rule_freq.rows(),
            other.beneficial_rule_freq.rows());
  EXPECT_TRUE(BitIdentical(Cells(base.beneficial_rule_freq),
                           Cells(other.beneficial_rule_freq)))
      << "beneficial_rule_freq";
  EXPECT_TRUE(BitIdentical(Cells(base.harmful_rule_freq),
                           Cells(other.harmful_rule_freq)))
      << "harmful_rule_freq";
  EXPECT_TRUE(
      BitIdentical(base.uncovered_rule_freq, other.uncovered_rule_freq))
      << "uncovered_rule_freq";
  EXPECT_EQ(base.uncovered_tests, other.uncovered_tests);
  EXPECT_EQ(base.global_accuracy, other.global_accuracy);
  EXPECT_EQ(base.matched_accuracy, other.matched_accuracy);
  EXPECT_EQ(base.num_keys, other.num_keys);
  EXPECT_EQ(base.tau_w_checks, other.tau_w_checks);
  EXPECT_EQ(base.related_records, other.related_records);
  if (with_kernel_work) {
    EXPECT_EQ(base.records_scanned, other.records_scanned);
    EXPECT_EQ(base.blocks_pruned, other.blocks_pruned);
    EXPECT_EQ(base.exact_fallbacks, other.exact_fallbacks);
  }
}

/// Bitwise equality of two doubles.
inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

inline void ExpectRuleStatsIdentical(const std::vector<store::RuleStat>& a,
                                     const std::vector<store::RuleStat>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_TRUE(SameBits(a[i].frequency, b[i].frequency))
        << a[i].frequency << " vs " << b[i].frequency;
    EXPECT_EQ(a[i].text, b[i].text);
  }
}

/// Every QueryReport field, doubles by bit pattern.
inline void ExpectQueryReportsIdentical(const store::QueryReport& a,
                                        const store::QueryReport& b) {
  EXPECT_TRUE(SameBits(a.tau_w, b.tau_w)) << "tau_w";
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_TRUE(BitIdentical(a.micro, b.micro)) << "micro";
  EXPECT_TRUE(BitIdentical(a.macro, b.macro)) << "macro";
  EXPECT_TRUE(SameBits(a.global_accuracy, b.global_accuracy))
      << "global_accuracy";
  EXPECT_TRUE(SameBits(a.matched_accuracy, b.matched_accuracy))
      << "matched_accuracy";
  EXPECT_EQ(a.uncovered_tests, b.uncovered_tests);
  {
    SCOPED_TRACE("uncovered_rules");
    ExpectRuleStatsIdentical(a.uncovered_rules, b.uncovered_rules);
  }
  ASSERT_EQ(a.participants.size(), b.participants.size());
  for (size_t p = 0; p < a.participants.size(); ++p) {
    SCOPED_TRACE(::testing::Message() << "participant " << p);
    const store::ParticipantSummary& x = a.participants[p];
    const store::ParticipantSummary& y = b.participants[p];
    EXPECT_EQ(x.participant, y.participant);
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.data_size, y.data_size);
    ExpectRuleStatsIdentical(x.beneficial, y.beneficial);
    ExpectRuleStatsIdentical(x.harmful, y.harmful);
    EXPECT_TRUE(SameBits(x.useless_ratio, y.useless_ratio))
        << "useless_ratio";
  }
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.tau_w_checks, b.tau_w_checks);
  EXPECT_EQ(a.postings_scanned, b.postings_scanned);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.records_scanned, b.records_scanned);
  EXPECT_EQ(a.blocks_pruned, b.blocks_pruned);
  EXPECT_EQ(a.exact_fallbacks, b.exact_fallbacks);
}

/// A deduplicating trace against one that gave every test a key of its
/// own (oracle::Trace without dedup). Keying moves only the per-key
/// counters (num_keys, tau_w_checks, related_records) and, by folding a
/// key's members into one term, the last bits of the §IV-B sums, which
/// are held to 1e-6. Every other field, and the micro and macro scores,
/// agree bit for bit.
inline void ExpectTracesEquivalentUpToKeying(const TraceResult& per_test,
                                             const TraceResult& keyed) {
  EXPECT_LE(keyed.num_keys, per_test.num_keys);
  const std::vector<double> beneficial = Cells(per_test.beneficial_rule_freq);
  const std::vector<double> harmful = Cells(per_test.harmful_rule_freq);
  ASSERT_EQ(beneficial.size(), keyed.beneficial_rule_freq.size());
  ASSERT_EQ(harmful.size(), keyed.harmful_rule_freq.size());
  for (size_t i = 0; i < beneficial.size(); ++i) {
    EXPECT_NEAR(keyed.beneficial_rule_freq.data()[i], beneficial[i], 1e-6);
    EXPECT_NEAR(keyed.harmful_rule_freq.data()[i], harmful[i], 1e-6);
  }
  TraceResult same = per_test;
  same.beneficial_rule_freq = keyed.beneficial_rule_freq;
  same.harmful_rule_freq = keyed.harmful_rule_freq;
  same.num_keys = keyed.num_keys;
  same.tau_w_checks = keyed.tau_w_checks;
  same.related_records = keyed.related_records;
  ExpectTracesIdentical(same, keyed, /*with_kernel_work=*/false);
  EXPECT_TRUE(BitIdentical(MicroAllocation(per_test), MicroAllocation(keyed)))
      << "micro";
  for (int delta : {1, 2, 3}) {
    EXPECT_TRUE(BitIdentical(MacroAllocation(per_test, delta),
                             MacroAllocation(keyed, delta)))
        << "macro, delta " << delta;
  }
}

}  // namespace ctfl

#endif  // CTFL_TESTS_TRACE_COMPARE_H_
