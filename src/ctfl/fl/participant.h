#ifndef CTFL_FL_PARTICIPANT_H_
#define CTFL_FL_PARTICIPANT_H_

#include <string>
#include <vector>

#include "ctfl/data/dataset.h"
#include "ctfl/util/bitset.h"

namespace ctfl {

/// One federated-learning client: an identity plus its private local
/// dataset. In this simulation the dataset lives in-process, but every
/// algorithm in the library only touches the pieces a real deployment
/// would expose (model updates and rule-activation vectors).
struct Participant {
  int id = 0;
  std::string name;
  Dataset data;

  Participant(int id_in, std::string name_in, Dataset data_in)
      : id(id_in), name(std::move(name_in)), data(std::move(data_in)) {}
};

/// A federation: the ordered list of participants. Participant i's
/// contribution score lands at index i of every scheme's output.
using Federation = std::vector<Participant>;

/// Wraps per-participant datasets into a Federation with names "P0", "P1"…
Federation MakeFederation(std::vector<Dataset> datasets);

/// Union of all participants' data (D_N in the paper).
Dataset MergeFederation(const Federation& federation);

/// Union of the named participants' data (D_S for coalition S).
Dataset MergeCoalition(const Federation& federation,
                       const std::vector<int>& coalition);

}  // namespace ctfl

#endif  // CTFL_FL_PARTICIPANT_H_
