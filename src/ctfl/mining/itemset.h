#ifndef CTFL_MINING_ITEMSET_H_
#define CTFL_MINING_ITEMSET_H_

#include <vector>

#include "ctfl/util/bitset.h"

namespace ctfl {

/// An itemset: sorted ascending item ids. Items here are rule coordinates;
/// transactions are rule-activation vectors.
using Itemset = std::vector<int>;

/// Vertical (tidset) representation of a transaction database: for each
/// item, the bitset of transactions containing it. Support counting of an
/// itemset reduces to intersecting tidsets — the layout Max-Miner-style
/// miners want.
class VerticalDb {
 public:
  /// `transactions[t]` is the item bitset of transaction t; all must share
  /// the same universe size.
  VerticalDb(const std::vector<Bitset>& transactions, size_t num_items);

  size_t num_items() const { return tidsets_.size(); }
  size_t num_transactions() const { return num_transactions_; }

  const Bitset& tidset(int item) const { return tidsets_[item]; }

  /// Support (transaction count) of a single item.
  size_t Support(int item) const { return tidsets_[item].Count(); }

 private:
  size_t num_transactions_;
  std::vector<Bitset> tidsets_;
};

/// True if `subset` ⊆ `superset` (both sorted ascending).
bool IsSubsetOf(const Itemset& subset, const Itemset& superset);

}  // namespace ctfl

#endif  // CTFL_MINING_ITEMSET_H_
