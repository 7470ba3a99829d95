#ifndef CTFL_MINING_MAX_MINER_H_
#define CTFL_MINING_MAX_MINER_H_

#include <cstdint>

#include "ctfl/mining/itemset.h"

namespace ctfl {

/// Maximal frequent itemsets in the style of Bayardo's Max-Miner
/// (SIGMOD'98), the algorithm the paper cites for its tracing
/// acceleration: depth-first search over candidate groups (head, tail)
/// with the two Max-Miner prunings —
///   (1) infrequent tail items are dropped before expansion, and
///   (2) the "look-ahead": if head ∪ tail is itself frequent, the whole
///       subtree collapses to that single maximal set.
/// Items are expanded in increasing support order (Max-Miner's reordering
/// heuristic) to make look-ahead fire early.
///
/// Dense databases can have combinatorially many maximal frequent
/// itemsets; `max_expansions` bounds the number of search-tree nodes and
/// `max_itemsets` the number of results. When either budget is hit the
/// search stops early — every returned itemset is still frequent and
/// maximal among the returned set, which is all the grouping prefilter
/// needs (it never requires completeness for correctness).
std::vector<Itemset> MaxMinerMaximal(const VerticalDb& db,
                                     size_t min_support,
                                     size_t max_expansions = SIZE_MAX,
                                     size_t max_itemsets = SIZE_MAX);

/// Filters a frequent collection down to its maximal members (no frequent
/// proper superset).
std::vector<Itemset> MaximalOnly(std::vector<Itemset> frequent);

}  // namespace ctfl

#endif  // CTFL_MINING_MAX_MINER_H_
