#include "ctfl/nn/trainer.h"

#include <algorithm>
#include <memory>

#include "ctfl/nn/loss.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/rng.h"
#include "ctfl/util/stopwatch.h"
#include "ctfl/util/thread_pool.h"

namespace ctfl {

double GraftedStep(LogicalNet& net, const Matrix& encoded,
                   const std::vector<int>& labels, Optimizer& optimizer) {
  // Per thread, so the cache's buffers (the encoded batch, the layer
  // outputs, layer 0's split and factor table) keep their storage from step
  // to step. No thread re-enters a step: its parallel sections run only
  // their own chunks.
  static thread_local LogicalNet::Cache cache;
  const Matrix discrete_logits = net.ForwardGrafted(encoded, &cache);
  Matrix dlogits;
  const double loss = SoftmaxCrossEntropy(discrete_logits, labels, &dlogits);
  net.ZeroGrads();
  net.Backward(cache, dlogits);
  const std::vector<ParamSlot> slots = net.ParamSlots();
  optimizer.Step(slots);
  net.ProjectWeights();
  return loss;
}

TrainReport TrainGrafted(LogicalNet& net, const Dataset& data,
                         const TrainConfig& config) {
  TrainReport report;
  if (data.empty()) return report;

  // Honor the config's matrix-parallelism budget. Inside a parallel
  // section (FedAvg client fan-out) the section's budget caps the kernels,
  // so the process-wide knob is left alone there.
  if (!ThreadPool::InParallelFor()) {
    SetMatrixParallelism(config.num_threads);
  }

  std::unique_ptr<Optimizer> optimizer;
  if (config.use_adam) {
    optimizer = std::make_unique<AdamOptimizer>(config.learning_rate);
  } else {
    optimizer = std::make_unique<SgdOptimizer>(config.learning_rate,
                                               config.sgd_momentum);
  }

  // Encode the whole dataset once; batches are row subsets.
  const Matrix all_encoded = net.EncodeBatch(data);
  Rng rng(config.seed);
  std::vector<int> order(static_cast<int>(data.size()));
  for (size_t i = 0; i < data.size(); ++i) order[i] = static_cast<int>(i);

  // Cached registry lookups: after the first call these are pure atomics.
  static telemetry::Counter& step_counter =
      telemetry::MetricsRegistry::Global().GetCounter("ctfl.train.steps");
  static telemetry::Histogram& epoch_hist =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "ctfl.train.epoch_us");

  const int batch_size = std::max(1, config.batch_size);
  // One batch buffer for the whole run; only a short last batch resizes it.
  Matrix batch;
  std::vector<int> labels;
  Stopwatch epoch_watch;
  report.epoch_stats.reserve(config.epochs > 0 ? config.epochs : 0);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    CTFL_SPAN("ctfl.train.epoch");
    rng.Shuffle(order);
    double epoch_loss = 0.0;
    int batches = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(batch_size)) {
      const size_t end =
          std::min(order.size(), start + static_cast<size_t>(batch_size));
      if (batch.rows() != end - start) {
        batch = Matrix(end - start, all_encoded.cols());
      }
      labels.resize(end - start);
      for (size_t r = start; r < end; ++r) {
        const int src = order[r];
        const double* src_row = all_encoded.row(src);
        double* dst_row = batch.row(r - start);
        std::copy(src_row, src_row + all_encoded.cols(), dst_row);
        labels[r - start] = data.instance(src).label;
      }
      epoch_loss += GraftedStep(net, batch, labels, *optimizer);
      ++batches;
      ++report.steps;
    }
    report.final_loss = batches > 0 ? epoch_loss / batches : 0.0;
    step_counter.Add(batches);
    const double epoch_seconds = epoch_watch.LapSeconds();
    epoch_hist.Observe(epoch_seconds * 1e6);
    report.epoch_stats.push_back({epoch, epoch_seconds, report.final_loss});
    if (config.verbose) {
      CTFL_LOG(Info) << "epoch " << epoch << " loss " << report.final_loss;
    }
  }
  return report;
}

}  // namespace ctfl
