#ifndef CTFL_CORE_ALLOCATION_H_
#define CTFL_CORE_ALLOCATION_H_

#include <vector>

#include "ctfl/core/tracer.h"

namespace ctfl {

/// Micro contribution allocation (paper Eq. 5): each correctly classified
/// test instance distributes its 1/|D_te| credit across participants in
/// proportion to their number of related training records — the FedAvg
/// volume-proportionality argument. With `on_correct = false` the same
/// formula runs over misclassified tests (the 1[ŷ≠y] variant of §IV-A),
/// yielding per-participant *loss* attribution.
std::vector<double> MicroAllocation(const TraceResult& trace,
                                    bool on_correct = true);

/// Macro (replication-robust) allocation (paper Eq. 6): each test instance
/// splits its credit *equally* among participants holding at least `delta`
/// related records, so duplicating data buys nothing.
std::vector<double> MacroAllocation(const TraceResult& trace, int delta,
                                    bool on_correct = true);

/// Macro scores for several delta values in one pass over the trace (the
/// "progressively without much extra computation" remark of §III-C).
std::vector<std::vector<double>> MacroAllocationSweep(
    const TraceResult& trace, const std::vector<int>& deltas,
    bool on_correct = true);

}  // namespace ctfl

#endif  // CTFL_CORE_ALLOCATION_H_
