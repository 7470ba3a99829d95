#include "ctfl/core/allocation.h"

#include "ctfl/util/logging.h"

namespace ctfl {

std::vector<double> MicroAllocation(const TraceResult& trace,
                                    bool on_correct) {
  const int n = trace.num_participants;
  std::vector<double> scores(n, 0.0);
  if (trace.tests.empty()) return scores;
  for (const TestTrace& t : trace.tests) {
    if (t.correct != on_correct) continue;
    if (t.total_related == 0) continue;
    for (int p = 0; p < n; ++p) {
      scores[p] += static_cast<double>(t.related_count[p]) /
                   static_cast<double>(t.total_related);
    }
  }
  for (double& s : scores) s /= trace.tests.size();
  return scores;
}

std::vector<double> MacroAllocation(const TraceResult& trace, int delta,
                                    bool on_correct) {
  return MacroAllocationSweep(trace, {delta}, on_correct)[0];
}

std::vector<std::vector<double>> MacroAllocationSweep(
    const TraceResult& trace, const std::vector<int>& deltas,
    bool on_correct) {
  const int n = trace.num_participants;
  std::vector<std::vector<double>> sweep(deltas.size(),
                                         std::vector<double>(n, 0.0));
  if (trace.tests.empty()) return sweep;
  for (const TestTrace& t : trace.tests) {
    if (t.correct != on_correct) continue;
    for (size_t d = 0; d < deltas.size(); ++d) {
      int qualifying = 0;
      for (int p = 0; p < n; ++p) {
        if (t.related_count[p] >= deltas[d]) ++qualifying;
      }
      if (qualifying == 0) continue;
      const double share = 1.0 / qualifying;
      for (int p = 0; p < n; ++p) {
        if (t.related_count[p] >= deltas[d]) sweep[d][p] += share;
      }
    }
  }
  for (auto& scores : sweep) {
    for (double& s : scores) s /= trace.tests.size();
  }
  return sweep;
}

}  // namespace ctfl
