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

/// Checks a decoded `config` against `schema` before a LogicalNet is built
/// from it, so that no decoded shape reaches a layer's CHECK or an
/// allocation it does not pay for: tau_d >= 1; every layer width >= 0, with
/// each layer's widths summing to >= 1; at least one encoded input and one
/// rule (each at most INT_MAX); and `param_count`, the count the input
/// carries, equal to the count the schema and config imply (computed in
/// 64-bit arithmetic). InvalidArgument otherwise. Every decoder of a model
/// (bundle, delta-log header, model text) bounds `param_count` by its
/// input's size and runs this before constructing anything.
Status ValidateNetShape(const FeatureSchema& schema,
                        const LogicalNetConfig& config, uint64_t param_count);

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
  /// Backward (which must see the weights the forward saw), with layer 0's
  /// group codes of the batch, whose storage the next step's forward
  /// reuses. The continuous rule vector is the input (input_skip) and
  /// every layer output, read in place.
  struct Cache {
    /// The batch, packed: layer 0's backward and the vote layer's skip
    /// columns read its bits (DESIGN.md §16.4).
    PackedRows input;
    std::vector<Matrix> layer_out;
    logic_kernel::GroupCodes layer0;
  };

  /// Continuous (fuzzy) logits; fills `cache` if non-null. Every element
  /// of `encoded` must be 0.0 or 1.0, as the encoder writes it.
  Matrix ForwardContinuous(const Matrix& encoded, Cache* cache) const;

  /// Binarized logits — the deployed model's inference (Eq. 3). Every
  /// element of `encoded` must be 0.0 or 1.0.
  Matrix ForwardDiscrete(const Matrix& encoded) const;

  /// The forward half of a grafted step on a packed batch (encoded_size()
  /// columns): fills `cache` as ForwardContinuous does on the batch's
  /// Matrix, without the continuous logits nobody reads, and returns
  /// ForwardDiscrete of that Matrix bit for bit, with the discrete pass's
  /// input words taken from the batch's bits. `cache` may hold an earlier
  /// step's buffers, whose storage it reuses.
  Matrix ForwardGrafted(const PackedRows& batch, Cache* cache) const;

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

  /// What the discrete pass needs of the model: every logic layer's
  /// active-input lists and whether every vote weight is finite, built
  /// from the weights at construction. It holds no scratch, so concurrent
  /// passes may share one; it is valid while the weights do not change.
  struct DiscretePlan {
    explicit DiscretePlan(const LogicalNet& net);
    std::vector<LogicLayer::ActiveLists> active;
    bool votes_finite = false;
  };
  /// Infer with a plan built from this net's current weights: a model that
  /// no longer changes (a query engine's) builds its plan once instead of
  /// once per call.
  Inference Infer(const Instance& instance, const DiscretePlan& plan) const;

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
