#include "ctfl/fl/utility.h"

#include <algorithm>

#include "ctfl/util/logging.h"

namespace ctfl {

uint64_t CoalitionMask(const std::vector<int>& coalition) {
  uint64_t mask = 0;
  for (int id : coalition) {
    CTFL_CHECK(id >= 0 && id < 64);
    mask |= (1ULL << id);
  }
  return mask;
}

RetrainUtility::RetrainUtility(const Federation* federation,
                               const Dataset* test, Config config)
    : federation_(federation), test_(test), config_(std::move(config)) {
  CTFL_CHECK(federation_ != nullptr && test_ != nullptr);
  CTFL_CHECK(!test_->empty());
}

double RetrainUtility::EmptyValue() const {
  const auto counts = test_->ClassCounts();
  return static_cast<double>(std::max(counts[0], counts[1])) /
         test_->size();
}

double RetrainUtility::Value(const std::vector<int>& coalition) {
  const uint64_t mask = CoalitionMask(coalition);
  const auto it = cache_.find(mask);
  if (it != cache_.end()) return it->second;

  double value = 0.0;
  if (mask == 0) {
    value = EmptyValue();
  } else {
    ++evaluations_;
    std::vector<int> members;
    for (int id = 0; id < num_participants(); ++id) {
      if (mask & (1ULL << id)) members.push_back(id);
    }
    const SchemaPtr schema = (*federation_)[0].data.schema();
    if (config_.federated) {
      std::vector<Dataset> clients;
      clients.reserve(members.size());
      for (int id : members) clients.push_back((*federation_)[id].data);
      Result<LogicalNet> net =
          TrainFederated(schema, config_.net, clients, config_.fedavg);
      // Coalition evaluation never configures failure injection, so an
      // error here can only be a malformed FedAvgConfig — a caller bug.
      CTFL_CHECK(net.ok()) << "coalition training failed: " << net.status();
      value = net->Accuracy(*test_);
    } else {
      const Dataset merged = MergeCoalition(*federation_, members);
      if (merged.empty()) {
        value = EmptyValue();
      } else {
        LogicalNet net =
            TrainCentral(schema, config_.net, merged, config_.train);
        value = net.Accuracy(*test_);
      }
    }
  }
  cache_[mask] = value;
  return value;
}

}  // namespace ctfl
