#ifndef CTFL_TESTS_ISA_TIERS_H_
#define CTFL_TESTS_ISA_TIERS_H_

// Runs a test body once at every SIMD tier this machine supports
// (util/cpu_features.h), with the process-wide tier forced, so the tiers'
// units (the tracing kernel's and the training step's) each face the same
// checks.

#include <gtest/gtest.h>

#include "ctfl/util/cpu_features.h"

namespace ctfl {

/// Calls body(isa) at every available tier, then restores the tier in
/// force before the call.
template <typename Body>
void ForEachTier(Body body) {
  const TraceIsa saved = CurrentTraceIsa();
  for (const TraceIsa isa : AvailableTraceIsas()) {
    ASSERT_TRUE(SetTraceIsa(isa).ok()) << TraceIsaName(isa);
    SCOPED_TRACE(::testing::Message() << "tier " << TraceIsaName(isa));
    body(isa);
  }
  ASSERT_TRUE(SetTraceIsa(saved).ok());
}

}  // namespace ctfl

#endif  // CTFL_TESTS_ISA_TIERS_H_
