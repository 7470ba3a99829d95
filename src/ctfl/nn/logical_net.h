#ifndef CTFL_NN_LOGICAL_NET_H_
#define CTFL_NN_LOGICAL_NET_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ctfl/data/dataset.h"
#include "ctfl/nn/binarization_layer.h"
#include "ctfl/nn/linear_layer.h"
#include "ctfl/nn/logic_layer.h"
#include "ctfl/nn/optimizer.h"
#include "ctfl/util/bitset.h"

namespace ctfl {

/// Hyper-parameters of the practical rule-based model (paper §V, Fig. 3).
struct LogicalNetConfig {
  /// Candidate bounds per direction per continuous feature.
  int tau_d = 10;
  /// (num_conjunction, num_disjunction) nodes per logical layer; the paper
  /// default is a single layer of 64-512 nodes.
  std::vector<std::pair<int, int>> logic_layers = {{64, 64}};
  /// Active inputs per logic node at initialization.
  int fan_in = 3;
  /// If true the encoded predicates feed the vote layer directly as
  /// single-predicate rules (a skip connection past the logic layers).
  bool input_skip = true;
  double linear_init_scale = 0.05;
  uint64_t seed = 42;
};

/// One reserved test instance's forward-pass artifacts: true label,
/// predicted class, and the raw (un-masked) rule-activation bitset.
/// Everything the tracing pass needs from a test instance, decoupled from
/// the Dataset — a bundle (store/) or a streaming fold (stream/) re-traces
/// persisted forwards without ever seeing raw test features.
struct TestForward {
  uint8_t label = 0;
  uint8_t predicted = 0;
  Bitset activation;
};

class LogicalNet;

/// The TestForward of every record of `test`, in record order, from one
/// blocked InferDataset pass — the forwards the tracer, a bundle and a
/// delta-log header all persist or match.
std::vector<TestForward> InferTestForwards(const LogicalNet& net,
                                           const Dataset& test);

/// The practical rule-based model: binarization encoding, logical layers,
/// and a linear vote layer. Maintains both the continuous (differentiable)
/// and the binarized (deployed, rule-crisp) forward paths that gradient
/// grafting couples during training.
///
/// Rule space: the vote layer's input vector is the concatenation of
/// [encoded predicates (if input_skip)] + [every logic layer's outputs]
/// (skip connections, paper §V "Build Logical Rules"); each coordinate is
/// one *rule* in the sense of Def. III.2.
class LogicalNet {
 public:
  LogicalNet(SchemaPtr schema, const LogicalNetConfig& config);

  const SchemaPtr& schema() const { return encoder_.schema(); }
  const LogicalNetConfig& config() const { return config_; }
  const BinarizationLayer& encoder() const { return encoder_; }
  const std::vector<LogicLayer>& logic_layers() const {
    return logic_layers_;
  }
  std::vector<LogicLayer>& mutable_logic_layers() { return logic_layers_; }
  const LinearLayer& linear() const { return linear_; }

  int encoded_size() const { return encoder_.encoded_size(); }
  /// Number of rule coordinates seen by the vote layer.
  int num_rules() const { return num_rules_; }

  /// Where rule coordinate `j` comes from: {-1, encoded_bit} for skip
  /// predicates or {layer_index, node_index} for logic nodes.
  std::pair<int, int> RuleSource(int j) const;

  /// Encodes dataset rows `indices` (all rows if empty) to binary inputs.
  Matrix EncodeBatch(const Dataset& dataset,
                     const std::vector<size_t>& indices = {}) const;

  /// Intermediate activations of a continuous forward pass, kept for
  /// Backward, with layer 0's row split and factor table (built once per
  /// step; Backward must see the weights the forward saw).
  struct Cache {
    Matrix encoded;
    std::vector<Matrix> layer_out;
    Matrix rules;
    LogicLayer::StepTables layer0;
  };

  /// Continuous (fuzzy) logits; fills `cache` if non-null.
  Matrix ForwardContinuous(const Matrix& encoded, Cache* cache) const;

  /// Binarized logits — the deployed model's inference (Eq. 3).
  Matrix ForwardDiscrete(const Matrix& encoded) const;

  /// Binarized rule-activation matrix (batch x num_rules): the encoded
  /// inputs verbatim (input_skip), then every logic node as 0/1, computed
  /// by the bit-packed pass with inputs thresholded at 0.5.
  Matrix RulesDiscrete(const Matrix& encoded) const;

  /// Gradient-grafting backward: `dlogits` is dL(Ȳ)/dȲ computed on the
  /// *discrete* outputs; it is pushed through the *continuous* graph in
  /// `cache`, accumulating parameter gradients.
  void Backward(const Cache& cache, const Matrix& dlogits);

  void ZeroGrads();
  /// Projects logic weights back into [0, 1] after an optimizer step.
  void ProjectWeights();
  std::vector<ParamSlot> ParamSlots();

  /// Flat parameter vector (for FedAvg aggregation).
  std::vector<double> GetParameters() const;
  void SetParameters(const std::vector<double>& flat);
  size_t NumParameters() const;

  /// Deployed single-instance inference (binarized model).
  int Predict(const Instance& instance) const;
  /// Deployed accuracy on `dataset` — the paper's utility metric Eq. (1).
  double Accuracy(const Dataset& dataset) const;

  /// Binarized rule-activation vector of one instance, as a Bitset over
  /// rule coordinates — the object participants upload for tracing.
  Bitset RuleActivations(const Instance& instance) const;

  /// Predict and RuleActivations of one instance from a single discrete
  /// forward pass.
  struct Inference {
    int predicted = 0;
    Bitset activation;
  };
  Inference Infer(const Instance& instance) const;

  /// Predict and/or RuleActivations of every record of `dataset`, in
  /// record order, from the bit-packed discrete pass over 64-record blocks
  /// (DESIGN.md §16). Either output may be null; the others are resized
  /// to dataset.size(). Equal to the per-record calls bit for bit.
  void InferDataset(const Dataset& dataset, std::vector<uint8_t>* predicted,
                    std::vector<Bitset>* activations) const;

  /// Class supported by rule j per Def. III.2: 1 if the vote layer weighs
  /// it more for the positive class, else 0.
  int RuleClass(int j) const;
  /// Importance weight of rule j: |w_pos(j) - w_neg(j)|.
  double RuleWeight(int j) const;

 private:
  LogicalNetConfig config_;
  BinarizationLayer encoder_;
  std::vector<LogicLayer> logic_layers_;
  LinearLayer linear_;
  int num_rules_;
};

}  // namespace ctfl

#endif  // CTFL_NN_LOGICAL_NET_H_
