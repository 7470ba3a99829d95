#include "ctfl/fl/metrics.h"

namespace ctfl {

const char* MetricKindToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kAccuracy:
      return "accuracy";
    case MetricKind::kBalancedAccuracy:
      return "balanced-accuracy";
    case MetricKind::kF1:
      return "f1";
    case MetricKind::kPrecision:
      return "precision";
    case MetricKind::kRecall:
      return "recall";
  }
  return "?";
}

double ConfusionMatrix::Accuracy() const {
  const size_t n = total();
  return n == 0 ? 0.0 : static_cast<double>(tp + tn) / n;
}

double ConfusionMatrix::Precision() const {
  const size_t denom = tp + fp;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / denom;
}

double ConfusionMatrix::Recall() const {
  const size_t denom = tp + fn;
  return denom == 0 ? 0.0 : static_cast<double>(tp) / denom;
}

double ConfusionMatrix::F1() const {
  const double p = Precision();
  const double r = Recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double ConfusionMatrix::BalancedAccuracy() const {
  const size_t pos = tp + fn;
  const size_t neg = tn + fp;
  if (pos == 0 || neg == 0) return Accuracy();
  const double tpr = static_cast<double>(tp) / pos;
  const double tnr = static_cast<double>(tn) / neg;
  return 0.5 * (tpr + tnr);
}

double ConfusionMatrix::Value(MetricKind kind) const {
  switch (kind) {
    case MetricKind::kAccuracy:
      return Accuracy();
    case MetricKind::kBalancedAccuracy:
      return BalancedAccuracy();
    case MetricKind::kF1:
      return F1();
    case MetricKind::kPrecision:
      return Precision();
    case MetricKind::kRecall:
      return Recall();
  }
  return 0.0;
}

ConfusionMatrix EvaluateConfusion(const LogicalNet& net,
                                  const Dataset& dataset) {
  ConfusionMatrix cm;
  if (dataset.empty()) return cm;
  // InferDataset's predictions are ForwardDiscrete's argmax bit for bit:
  // both take the one vote kernel (DESIGN.md §16.5).
  std::vector<uint8_t> predicted;
  net.InferDataset(dataset, &predicted, nullptr);
  for (size_t r = 0; r < dataset.size(); ++r) {
    const int pred = predicted[r];
    const int label = dataset.instance(r).label;
    if (pred == 1 && label == 1) ++cm.tp;
    if (pred == 0 && label == 0) ++cm.tn;
    if (pred == 1 && label == 0) ++cm.fp;
    if (pred == 0 && label == 1) ++cm.fn;
  }
  return cm;
}

double EvaluateMetric(const LogicalNet& net, const Dataset& dataset,
                      MetricKind kind) {
  return EvaluateConfusion(net, dataset).Value(kind);
}

Result<std::vector<double>> InstanceCreditWeights(const Dataset& test,
                                                  MetricKind kind) {
  std::vector<double> weights(test.size(), 0.0);
  switch (kind) {
    case MetricKind::kAccuracy: {
      const double w = test.empty() ? 0.0 : 1.0 / test.size();
      for (double& x : weights) x = w;
      return weights;
    }
    case MetricKind::kBalancedAccuracy: {
      const auto counts = test.ClassCounts();
      for (size_t t = 0; t < test.size(); ++t) {
        const size_t class_size = counts[test.instance(t).label];
        weights[t] = class_size == 0 ? 0.0 : 0.5 / class_size;
      }
      return weights;
    }
    case MetricKind::kF1:
    case MetricKind::kPrecision:
    case MetricKind::kRecall:
      return Status::NotFound(
          std::string(MetricKindToString(kind)) +
          " is not instance-decomposable; evaluate it via EvaluateMetric");
  }
  return Status::Internal("unhandled metric kind");
}

}  // namespace ctfl
