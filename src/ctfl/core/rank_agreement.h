#ifndef CTFL_CORE_RANK_AGREEMENT_H_
#define CTFL_CORE_RANK_AGREEMENT_H_

// How far two contribution rankings over the same participants agree: the
// drift report of a deliberate numerics change (`ctfl_replay compare`)
// reads it against the spread that redrawing the test set gives.

#include <vector>

namespace ctfl {

/// Kendall's tau-b of the orders `a` and `b` give the same n items (n
/// finite values each): (C - D) / sqrt((P - Ta)(P - Tb)) over the P = n(n -
/// 1)/2 pairs, C of them ordered the same way by both, D the opposite way,
/// Ta tied in `a` and Tb tied in `b`. A pair tied in either vector is
/// neither concordant nor discordant. Identical orders give 1 and reversed
/// ones -1. Where the formula has no value it is defined: 1 when every
/// pair ties in both (n < 2 included: nothing disagrees), 0 when every pair
/// ties in just one of them. Requires a.size() == b.size().
double KendallTau(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace ctfl

#endif  // CTFL_CORE_RANK_AGREEMENT_H_
