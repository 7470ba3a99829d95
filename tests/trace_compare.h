#ifndef CTFL_TESTS_TRACE_COMPARE_H_
#define CTFL_TESTS_TRACE_COMPARE_H_

// Every-field equality of tracing results: the bit-identity contract that
// the tracer, the query engine and the streaming scorer share (DESIGN.md
// §9/§10). Doubles compare by bit pattern, never by tolerance.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/core/allocation.h"
#include "ctfl/core/tracer.h"
#include "ctfl/nn/matrix.h"

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
