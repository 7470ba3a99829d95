#include "ctfl/mining/max_miner.h"

#include <algorithm>

namespace ctfl {
namespace {

struct MinerState {
  const VerticalDb* db;
  size_t min_support;
  size_t expansions_left;
  size_t itemsets_left;
  std::vector<Itemset> found;

  bool Exhausted() const {
    return expansions_left == 0 || itemsets_left == 0;
  }
};

// Records `candidate` unless an already-found maximal set subsumes it.
void Record(MinerState& state, Itemset candidate) {
  for (const Itemset& kept : state.found) {
    if (IsSubsetOf(candidate, kept)) return;
  }
  state.found.push_back(std::move(candidate));
  if (state.itemsets_left > 0) --state.itemsets_left;
}

// head: current itemset; head_tids: its tidset; tail: candidate extension
// items.
void Expand(MinerState& state, const Itemset& head, const Bitset& head_tids,
            const std::vector<int>& tail) {
  if (state.Exhausted()) return;
  --state.expansions_left;

  // Prune tail items that are infrequent relative to head.
  struct TailItem {
    int item;
    size_t support;
  };
  std::vector<TailItem> viable;
  for (int item : tail) {
    const size_t support = head_tids.AndCount(state.db->tidset(item));
    if (support >= state.min_support) viable.push_back({item, support});
  }
  if (viable.empty()) {
    if (!head.empty()) Record(state, head);
    return;
  }

  // Look-ahead: if head ∪ viable-tail is frequent, it is the unique
  // maximal set below this node.
  Bitset all_tids = head_tids;
  for (const TailItem& ti : viable) all_tids &= state.db->tidset(ti.item);
  if (all_tids.Count() >= state.min_support) {
    Itemset maximal = head;
    for (const TailItem& ti : viable) maximal.push_back(ti.item);
    std::sort(maximal.begin(), maximal.end());
    Record(state, maximal);
    return;
  }

  // Expand in increasing support order; items already expanded move out of
  // the tail of later siblings.
  std::sort(viable.begin(), viable.end(),
            [](const TailItem& a, const TailItem& b) {
              if (a.support != b.support) return a.support < b.support;
              return a.item < b.item;
            });
  for (size_t k = 0; k < viable.size(); ++k) {
    if (state.Exhausted()) return;
    Itemset new_head = head;
    new_head.push_back(viable[k].item);
    std::sort(new_head.begin(), new_head.end());
    Bitset new_tids = head_tids;
    new_tids &= state.db->tidset(viable[k].item);
    std::vector<int> new_tail;
    for (size_t m = k + 1; m < viable.size(); ++m) {
      new_tail.push_back(viable[m].item);
    }
    Expand(state, new_head, new_tids, new_tail);
  }
}

}  // namespace

std::vector<Itemset> MaximalOnly(std::vector<Itemset> frequent) {
  // Sort by descending size so any superset precedes its subsets.
  std::sort(frequent.begin(), frequent.end(),
            [](const Itemset& a, const Itemset& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a < b;
            });
  std::vector<Itemset> maximal;
  for (const Itemset& candidate : frequent) {
    bool subsumed = false;
    for (const Itemset& kept : maximal) {
      if (IsSubsetOf(candidate, kept)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) maximal.push_back(candidate);
  }
  return maximal;
}

std::vector<Itemset> MaxMinerMaximal(const VerticalDb& db,
                                     size_t min_support,
                                     size_t max_expansions,
                                     size_t max_itemsets) {
  MinerState state{&db, std::max<size_t>(min_support, 1), max_expansions,
                   max_itemsets,
                   {}};
  std::vector<int> items;
  for (int item = 0; item < static_cast<int>(db.num_items()); ++item) {
    if (db.Support(item) >= state.min_support) items.push_back(item);
  }
  Bitset all(db.num_transactions());
  for (size_t t = 0; t < db.num_transactions(); ++t) all.Set(t);
  Expand(state, {}, all, items);
  // DFS order does not guarantee supersets are found before subsets in
  // every branch interleaving; a final maximality sweep settles it.
  return MaximalOnly(std::move(state.found));
}

}  // namespace ctfl
