#ifndef CTFL_FL_SECURE_AGG_H_
#define CTFL_FL_SECURE_AGG_H_

#include <vector>

#include "ctfl/util/result.h"
#include "ctfl/util/rng.h"

namespace ctfl {

/// Pairwise-masking secure aggregation (Bonawitz et al. style, simulated
/// in-process; paper §V: "security protection techniques such as secret
/// sharing can also be applied like in regular FL").
///
/// Every ordered pair of clients (i < j) derives a shared mask vector from
/// a common seed; client i ADDS the mask to its update, client j SUBTRACTS
/// it. Each masked update in isolation is statistically garbage, but the
/// server-side sum cancels every mask exactly, recovering the true sum of
/// updates — the server never sees an individual client's update.
class SecureAggregator {
 public:
  /// `session_seed` stands in for the key-agreement transcript.
  SecureAggregator(int num_clients, size_t update_size,
                   uint64_t session_seed);

  int num_clients() const { return num_clients_; }
  size_t update_size() const { return update_size_; }

  /// The masked update `client` (a member of `cohort`) sends when only
  /// `cohort` survives the round; full participation is the full cohort.
  /// Masks are derived pairwise over the cohort only — a dropped client
  /// owes no mask and is owed none — so AggregateCohort over the same
  /// cohort cancels them exactly. `cohort` must be strictly ascending
  /// client ids in [0, num_clients()).
  Result<std::vector<double>> MaskCohort(
      int client, const std::vector<int>& cohort,
      const std::vector<double>& update) const;

  /// Server-side aggregation of the surviving cohort's masked updates
  /// (one per cohort member, in cohort order). The cohort's pairwise
  /// masks cancel, recovering the element-wise sum of the survivors'
  /// true updates.
  Result<std::vector<double>> AggregateCohort(
      const std::vector<int>& cohort,
      const std::vector<std::vector<double>>& masked_updates) const;

 private:
  /// Deterministic mask shared by the pair (i, j), i < j.
  std::vector<double> PairMask(int i, int j) const;

  /// Cohorts must be non-empty, strictly ascending, in range.
  Status CheckCohort(const std::vector<int>& cohort) const;

  int num_clients_;
  size_t update_size_;
  uint64_t session_seed_;
};

}  // namespace ctfl

#endif  // CTFL_FL_SECURE_AGG_H_
