#ifndef CTFL_FL_UTILITY_H_
#define CTFL_FL_UTILITY_H_

#include <unordered_map>
#include <vector>

#include "ctfl/fl/fedavg.h"
#include "ctfl/fl/participant.h"

namespace ctfl {

/// Abstract coalition-value oracle v(D_S) (paper Def. II.1). Valuation
/// schemes are written against this interface, so tests can plug in exact
/// synthetic games (with known Shapley values) and benches plug in real
/// retraining.
class CoalitionUtility {
 public:
  virtual ~CoalitionUtility() = default;

  virtual int num_participants() const = 0;

  /// Data utility of the coalition (ids need not be sorted; duplicates are
  /// ignored). Deterministic per coalition.
  virtual double Value(const std::vector<int>& coalition) = 0;

  /// Number of *distinct* coalition evaluations performed (the unit the
  /// paper's efficiency comparison counts, since each one costs a model
  /// training + inference).
  virtual int evaluations() const = 0;
};

/// Retraining-based utility: v(D_S) = test accuracy of a rule-based model
/// trained on the union of coalition members' data (Eq. 1). Memoizes by
/// coalition bitmask. v(emptyset) is the majority-class accuracy of the
/// test set (the no-information baseline).
class RetrainUtility : public CoalitionUtility {
 public:
  struct Config {
    LogicalNetConfig net;
    TrainConfig train;
    /// If true, coalition models are trained with FedAvg across the
    /// members; otherwise centrally on the merged coalition data (faster,
    /// same utility signal).
    bool federated = false;
    FedAvgConfig fedavg;
  };

  /// `federation` and `test` must outlive this object.
  RetrainUtility(const Federation* federation, const Dataset* test,
                 Config config);

  int num_participants() const override {
    return static_cast<int>(federation_->size());
  }
  double Value(const std::vector<int>& coalition) override;
  int evaluations() const override { return evaluations_; }

  /// Accuracy of the constant majority-class predictor on the test set —
  /// the no-information baseline v(emptyset).
  double EmptyValue() const;

 private:
  const Federation* federation_;
  const Dataset* test_;
  Config config_;
  std::unordered_map<uint64_t, double> cache_;
  int evaluations_ = 0;
};

/// Bitmask of a coalition id list.
uint64_t CoalitionMask(const std::vector<int>& coalition);

}  // namespace ctfl

#endif  // CTFL_FL_UTILITY_H_
