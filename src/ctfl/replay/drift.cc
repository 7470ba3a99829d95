#include "ctfl/replay/drift.h"

#include <algorithm>
#include <cmath>

#include "ctfl/core/rank_agreement.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace replay {
namespace {

/// The largest |b - a|, and every pair the two vectors order oppositely.
double AddScheme(const char* scheme, const std::vector<double>& a,
                 const std::vector<double>& b, OutcomeDrift* drift) {
  double max_delta = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_delta = std::max(max_delta, std::fabs(b[i] - a[i]));
    for (size_t j = i + 1; j < a.size(); ++j) {
      const double gap_a = a[i] - a[j];
      const double gap_b = b[i] - b[j];
      if ((gap_a > 0.0 && gap_b < 0.0) || (gap_a < 0.0 && gap_b > 0.0)) {
        drift->swaps.push_back({scheme, i, j, gap_a, gap_b});
      }
    }
  }
  return max_delta;
}

}  // namespace

Result<OutcomeDrift> MeasureDrift(const ReplayFile& a, const ReplayFile& b) {
  if (!a.has_outcome || !b.has_outcome) {
    return Status::InvalidArgument(
        "both replay files need a recorded outcome to compare");
  }
  const RunOutcome& x = a.outcome;
  const RunOutcome& y = b.outcome;
  if (x.micro.size() != y.micro.size() || x.macro.size() != y.macro.size() ||
      x.micro.size() != x.macro.size()) {
    return Status::InvalidArgument(StrFormat(
        "participant counts differ: %zu micro / %zu macro against %zu / %zu",
        x.micro.size(), x.macro.size(), y.micro.size(), y.macro.size()));
  }
  OutcomeDrift drift;
  drift.accuracy_a = x.test_accuracy;
  drift.accuracy_b = y.test_accuracy;
  drift.max_micro_delta = AddScheme("micro", x.micro, y.micro, &drift);
  drift.max_macro_delta = AddScheme("macro", x.macro, y.macro, &drift);
  drift.micro_tau = KendallTau(x.micro, y.micro);
  drift.macro_tau = KendallTau(x.macro, y.macro);
  return drift;
}

std::string RenderDrift(const OutcomeDrift& drift) {
  std::string out = StrFormat("test accuracy  %.6f  %.6f\n", drift.accuracy_a,
                              drift.accuracy_b);
  out += StrFormat("micro  max |delta| %.3e  tau-b %.6f\n",
                   drift.max_micro_delta, drift.micro_tau);
  out += StrFormat("macro  max |delta| %.3e  tau-b %.6f\n",
                   drift.max_macro_delta, drift.macro_tau);
  for (const OutcomeDrift::Swap& swap : drift.swaps) {
    out += StrFormat("swapped %s P%zu P%zu  gap %+.3e  %+.3e\n",
                     swap.scheme.c_str(), swap.i, swap.j, swap.gap_a,
                     swap.gap_b);
  }
  return out;
}

}  // namespace replay
}  // namespace ctfl
