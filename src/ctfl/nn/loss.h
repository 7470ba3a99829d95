#ifndef CTFL_NN_LOSS_H_
#define CTFL_NN_LOSS_H_

#include <vector>

#include "ctfl/nn/matrix.h"

namespace ctfl {

/// Mean softmax cross-entropy over the batch. If `dlogits` is non-null it
/// receives the mean gradient (softmax(logits) - onehot(label)) / batch.
double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, Matrix* dlogits);

}  // namespace ctfl

#endif  // CTFL_NN_LOSS_H_
