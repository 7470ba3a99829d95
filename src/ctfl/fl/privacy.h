#ifndef CTFL_FL_PRIVACY_H_
#define CTFL_FL_PRIVACY_H_

#include "ctfl/util/bitset.h"
#include "ctfl/util/rng.h"

namespace ctfl {

/// Local differential privacy for uploaded rule-activation vectors (paper
/// §V privacy analysis: activation vectors "can be further perturbed to
/// guarantee differential privacy").
///
/// Mechanism: per-bit randomized response. Each bit is reported truthfully
/// with probability e^eps / (1 + e^eps) and flipped otherwise, which makes
/// the per-bit report eps-locally-differentially-private. A whole vector
/// of m bits is then (m*eps)-DP in the worst case; in practice the
/// federation chooses eps per bit.

/// Probability that randomized response flips a bit at privacy level eps.
/// eps -> infinity: 0 (no noise); eps = 0: 0.5 (pure noise).
double RandomizedResponseFlipProbability(double epsilon);

/// Applies per-bit randomized response to an activation vector.
Bitset RandomizedResponse(const Bitset& bits, double epsilon, Rng& rng);

}  // namespace ctfl

#endif  // CTFL_FL_PRIVACY_H_
