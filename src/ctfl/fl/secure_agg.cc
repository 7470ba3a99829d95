#include "ctfl/fl/secure_agg.h"

#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {

SecureAggregator::SecureAggregator(int num_clients, size_t update_size,
                                   uint64_t session_seed)
    : num_clients_(num_clients),
      update_size_(update_size),
      session_seed_(session_seed) {
  CTFL_CHECK(num_clients_ > 0);
}

std::vector<double> SecureAggregator::PairMask(int i, int j) const {
  CTFL_CHECK(i < j);
  // The pair seed models the Diffie-Hellman-agreed PRG seed.
  Rng rng(session_seed_ ^ (static_cast<uint64_t>(i) * 0x9e3779b1ULL) ^
          (static_cast<uint64_t>(j) * 0x85ebca6bULL));
  std::vector<double> mask(update_size_);
  for (double& m : mask) m = rng.Uniform(-1.0, 1.0);
  return mask;
}

Status SecureAggregator::CheckCohort(const std::vector<int>& cohort) const {
  if (cohort.empty()) {
    return Status::InvalidArgument("cohort is empty");
  }
  int prev = -1;
  for (int member : cohort) {
    if (member < 0 || member >= num_clients_) {
      return Status::OutOfRange(StrFormat("cohort member %d", member));
    }
    if (member <= prev) {
      return Status::InvalidArgument(
          "cohort ids must be strictly ascending");
    }
    prev = member;
  }
  return Status::OK();
}

Result<std::vector<double>> SecureAggregator::MaskCohort(
    int client, const std::vector<int>& cohort,
    const std::vector<double>& update) const {
  CTFL_RETURN_IF_ERROR(CheckCohort(cohort));
  bool member = false;
  for (int id : cohort) member = member || id == client;
  if (!member) {
    return Status::InvalidArgument(
        StrFormat("client %d is not in the cohort", client));
  }
  if (update.size() != update_size_) {
    return Status::InvalidArgument("update size mismatch");
  }
  // The pair seeds hash *global* client ids, so a pair that survives
  // together derives the very same mask it would under full
  // participation.
  std::vector<double> masked = update;
  for (int other : cohort) {
    if (other == client) continue;
    const std::vector<double> mask = client < other
                                         ? PairMask(client, other)
                                         : PairMask(other, client);
    const double sign = client < other ? 1.0 : -1.0;
    for (size_t k = 0; k < update_size_; ++k) {
      masked[k] += sign * mask[k];
    }
  }
  return masked;
}

Result<std::vector<double>> SecureAggregator::AggregateCohort(
    const std::vector<int>& cohort,
    const std::vector<std::vector<double>>& masked_updates) const {
  CTFL_RETURN_IF_ERROR(CheckCohort(cohort));
  if (masked_updates.size() != cohort.size()) {
    return Status::InvalidArgument(StrFormat(
        "cohort has %zu members but %zu masked updates were submitted",
        cohort.size(), masked_updates.size()));
  }
  std::vector<double> sum(update_size_, 0.0);
  for (const auto& update : masked_updates) {
    if (update.size() != update_size_) {
      return Status::InvalidArgument("masked update size mismatch");
    }
    for (size_t k = 0; k < update_size_; ++k) sum[k] += update[k];
  }
  return sum;
}

}  // namespace ctfl
