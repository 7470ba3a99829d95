#include "ctfl/data/split.h"

#include <algorithm>

namespace ctfl {
namespace {

TrainTestSplit SplitByIndices(const Dataset& dataset,
                              const std::vector<size_t>& test_indices) {
  std::vector<bool> is_test(dataset.size(), false);
  for (size_t i : test_indices) is_test[i] = true;
  std::vector<size_t> train_indices;
  train_indices.reserve(dataset.size() - test_indices.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (!is_test[i]) train_indices.push_back(i);
  }
  return TrainTestSplit{dataset.Subset(train_indices),
                        dataset.Subset(test_indices)};
}

}  // namespace

TrainTestSplit StratifiedSplit(const Dataset& dataset, double test_fraction,
                               Rng& rng) {
  std::vector<size_t> by_class[2];
  for (size_t i = 0; i < dataset.size(); ++i) {
    by_class[dataset.instance(i).label].push_back(i);
  }
  std::vector<size_t> test_indices;
  for (auto& idx : by_class) {
    std::vector<int> perm(idx.size());
    for (size_t i = 0; i < idx.size(); ++i) perm[i] = static_cast<int>(i);
    rng.Shuffle(perm);
    const size_t n_test =
        static_cast<size_t>(idx.size() * test_fraction + 0.5);
    for (size_t i = 0; i < n_test; ++i) test_indices.push_back(idx[perm[i]]);
  }
  std::sort(test_indices.begin(), test_indices.end());
  return SplitByIndices(dataset, test_indices);
}

}  // namespace ctfl
