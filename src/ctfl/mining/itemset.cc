#include "ctfl/mining/itemset.h"

#include <algorithm>

#include "ctfl/util/logging.h"

namespace ctfl {

VerticalDb::VerticalDb(const std::vector<Bitset>& transactions,
                       size_t num_items)
    : num_transactions_(transactions.size()) {
  tidsets_.assign(num_items, Bitset(transactions.size()));
  for (size_t t = 0; t < transactions.size(); ++t) {
    CTFL_CHECK(transactions[t].size() == num_items);
    for (size_t item : transactions[t].SetBits()) {
      tidsets_[item].Set(t);
    }
  }
}

bool IsSubsetOf(const Itemset& subset, const Itemset& superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

}  // namespace ctfl
