#include "ctfl/core/rank_agreement.h"

#include <cmath>
#include <cstdint>

#include "ctfl/util/logging.h"

namespace ctfl {

double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  CTFL_CHECK(a.size() == b.size());
  const size_t n = a.size();
  int64_t pairs = 0;
  int64_t concordant = 0;
  int64_t discordant = 0;
  int64_t ties_a = 0;
  int64_t ties_b = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const int sa = (a[i] > a[j]) - (a[i] < a[j]);
      const int sb = (b[i] > b[j]) - (b[i] < b[j]);
      ++pairs;
      ties_a += sa == 0;
      ties_b += sb == 0;
      if (sa * sb > 0) ++concordant;
      if (sa * sb < 0) ++discordant;
    }
  }
  if (ties_a == pairs || ties_b == pairs) {
    return ties_a == ties_b ? 1.0 : 0.0;
  }
  return static_cast<double>(concordant - discordant) /
         std::sqrt(static_cast<double>(pairs - ties_a) *
                   static_cast<double>(pairs - ties_b));
}

}  // namespace ctfl
