#ifndef CTFL_REPLAY_DRIFT_H_
#define CTFL_REPLAY_DRIFT_H_

// The drift report of a deliberate numerics change (`ctfl_replay
// compare`, DESIGN.md §14): where CompareOutcomes asserts that a replay
// reproduced a recorded outcome bit for bit, this measures how far two
// recorded outcomes over the same participants lie apart, by accuracy,
// score and ranking.

#include <cstddef>
#include <string>
#include <vector>

#include "ctfl/replay/replay_file.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace replay {

struct OutcomeDrift {
  double accuracy_a = 0.0;
  double accuracy_b = 0.0;
  /// The largest |b - a| of one participant's score.
  double max_micro_delta = 0.0;
  double max_macro_delta = 0.0;
  /// KendallTau (core/rank_agreement.h) of the two rankings.
  double micro_tau = 1.0;
  double macro_tau = 1.0;
  /// A pair of participants (i < j) the two rankings order oppositely,
  /// with both recorded gaps score[i] - score[j].
  struct Swap {
    std::string scheme;  ///< "micro" or "macro"
    size_t i = 0;
    size_t j = 0;
    double gap_a = 0.0;
    double gap_b = 0.0;
  };
  std::vector<Swap> swaps;
};

/// The drift from `a`'s recorded outcome to `b`'s. InvalidArgument when
/// either file has no outcome or their participant counts differ.
Result<OutcomeDrift> MeasureDrift(const ReplayFile& a, const ReplayFile& b);

/// The report `ctfl_replay compare` prints: both accuracies, then per
/// scheme the largest |delta| and tau-b, then one line per swapped pair.
std::string RenderDrift(const OutcomeDrift& drift);

}  // namespace replay
}  // namespace ctfl

#endif  // CTFL_REPLAY_DRIFT_H_
