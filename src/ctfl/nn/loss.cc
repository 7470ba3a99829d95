#include "ctfl/nn/loss.h"

#include <algorithm>
#include <cmath>

#include "ctfl/util/logging.h"

namespace ctfl {

double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, Matrix* dlogits) {
  CTFL_CHECK(logits.rows() == labels.size());
  const size_t batch = logits.rows();
  const size_t classes = logits.cols();
  if (dlogits != nullptr) *dlogits = Matrix(batch, classes);
  double total = 0.0;
  std::vector<double> probs(classes);
  for (size_t r = 0; r < batch; ++r) {
    const double* row = logits.row(r);
    const double mx = *std::max_element(row, row + classes);
    double z = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      probs[c] = std::exp(row[c] - mx);
      z += probs[c];
    }
    for (double& p : probs) p /= z;
    const int label = labels[r];
    total += -std::log(std::max(probs[label], 1e-12));
    if (dlogits != nullptr) {
      for (size_t c = 0; c < classes; ++c) {
        (*dlogits)(r, c) =
            (probs[c] - (static_cast<int>(c) == label ? 1.0 : 0.0)) / batch;
      }
    }
  }
  return total / batch;
}

}  // namespace ctfl
