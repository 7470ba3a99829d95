#ifndef CTFL_NN_TRAINER_H_
#define CTFL_NN_TRAINER_H_

#include "ctfl/data/dataset.h"
#include "ctfl/nn/logical_net.h"
#include "ctfl/telemetry/run_telemetry.h"

namespace ctfl {

/// Hyper-parameters for gradient-grafting training (paper §V "Learn
/// Non-fuzzy Rules").
struct TrainConfig {
  int epochs = 40;
  int batch_size = 64;
  double learning_rate = 0.02;
  bool use_adam = true;
  double sgd_momentum = 0.9;
  uint64_t seed = 7;
  /// Thread budget for the sharded kernels used while this config trains
  /// (0 = hardware concurrency, 1 = serial). Applied process-wide via
  /// SetMatrixParallelism at TrainGrafted entry, except inside a parallel
  /// section (FedAvg's client fan-out), whose own budget caps the kernels.
  /// Results are bit-identical for any value (DESIGN.md §9).
  int num_threads = 0;
  bool verbose = false;
};

struct TrainReport {
  double final_loss = 0.0;
  int steps = 0;
  /// Per-epoch wall time + mean loss (one entry per epoch run).
  std::vector<telemetry::EpochTelemetry> epoch_stats;
};

/// Trains `net` in place on `data` with gradient grafting: the loss is
/// evaluated on the binarized model's outputs and its gradient is pushed
/// through the continuous model (θ^{t+1} = θ^t − η ∂L(Ȳ)/∂Ȳ · ∂Y/∂θ^t).
TrainReport TrainGrafted(LogicalNet& net, const Dataset& data,
                         const TrainConfig& config);

/// One grafted gradient step over the given pre-encoded batch; returns the
/// discrete-model loss. Exposed for the FedAvg client loop and tests.
double GraftedStep(LogicalNet& net, const Matrix& encoded,
                   const std::vector<int>& labels, Optimizer& optimizer);

}  // namespace ctfl

#endif  // CTFL_NN_TRAINER_H_
