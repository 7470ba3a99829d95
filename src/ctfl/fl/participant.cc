#include "ctfl/fl/participant.h"

#include "ctfl/util/logging.h"

namespace ctfl {

Federation MakeFederation(std::vector<Dataset> datasets) {
  Federation federation;
  federation.reserve(datasets.size());
  for (size_t i = 0; i < datasets.size(); ++i) {
    std::string name = "P";
    name += std::to_string(i);
    federation.emplace_back(static_cast<int>(i), std::move(name),
                            std::move(datasets[i]));
  }
  return federation;
}

Dataset MergeFederation(const Federation& federation) {
  CTFL_CHECK(!federation.empty());
  Dataset merged(federation[0].data.schema());
  for (const Participant& p : federation) merged.Merge(p.data);
  return merged;
}

Dataset MergeCoalition(const Federation& federation,
                       const std::vector<int>& coalition) {
  CTFL_CHECK(!federation.empty());
  Dataset merged(federation[0].data.schema());
  for (int id : coalition) {
    CTFL_CHECK(id >= 0 && id < static_cast<int>(federation.size()));
    merged.Merge(federation[id].data);
  }
  return merged;
}

}  // namespace ctfl
