#include "ctfl/fl/privacy.h"

#include <cmath>

#include "ctfl/util/logging.h"

namespace ctfl {

double RandomizedResponseFlipProbability(double epsilon) {
  CTFL_CHECK(epsilon >= 0.0);
  return 1.0 / (1.0 + std::exp(epsilon));
}

Bitset RandomizedResponse(const Bitset& bits, double epsilon, Rng& rng) {
  const double flip = RandomizedResponseFlipProbability(epsilon);
  Bitset out = bits;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (rng.Bernoulli(flip)) {
      if (out.Test(i)) {
        out.Clear(i);
      } else {
        out.Set(i);
      }
    }
  }
  return out;
}

}  // namespace ctfl
