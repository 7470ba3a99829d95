#ifndef CTFL_TESTS_TABULAR_UTILITY_H_
#define CTFL_TESTS_TABULAR_UTILITY_H_

// An exact coalition game for the valuation tests: a table of v(S) over all
// 2^n coalitions, where Shapley and least-core values are hand-computable.

#include <unordered_map>
#include <utility>
#include <vector>

#include "ctfl/fl/utility.h"
#include "ctfl/util/logging.h"

namespace ctfl {

/// Table-lookup utility over all 2^n coalitions.
class TabularUtility : public CoalitionUtility {
 public:
  /// `values[mask]` is v(S) for the coalition whose members are the set
  /// bits of `mask`; size must be 2^n.
  TabularUtility(int n, std::vector<double> values)
      : n_(n), values_(std::move(values)) {
    CTFL_CHECK(n_ > 0 && n_ < 20);
    CTFL_CHECK(values_.size() == (1ULL << n_));
  }

  int num_participants() const override { return n_; }
  double Value(const std::vector<int>& coalition) override {
    const uint64_t mask = CoalitionMask(coalition);
    CTFL_CHECK(mask < values_.size());
    if (mask != 0 && !seen_[mask]) {
      seen_[mask] = true;
      ++evaluations_;
    }
    return values_[mask];
  }
  int evaluations() const override { return evaluations_; }

 private:
  int n_;
  std::vector<double> values_;
  std::unordered_map<uint64_t, bool> seen_;
  int evaluations_ = 0;
};

}  // namespace ctfl

#endif  // CTFL_TESTS_TABULAR_UTILITY_H_
