#include "ctfl/nn/logical_net.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {

Status ValidateNetShape(const FeatureSchema& schema,
                        const LogicalNetConfig& config, uint64_t param_count) {
  if (config.tau_d < 1) {
    return Status::InvalidArgument(
        StrFormat("model tau_d must be >= 1, got %d", config.tau_d));
  }
  bool overflow = false;
  const auto add = [&](uint64_t a, uint64_t b) {
    uint64_t sum = 0;
    overflow |= __builtin_add_overflow(a, b, &sum);
    return sum;
  };
  const auto mul = [&](uint64_t a, uint64_t b) {
    uint64_t product = 0;
    overflow |= __builtin_mul_overflow(a, b, &product);
    return product;
  };
  // The encoder's width (BinarizationLayer): one input per category of a
  // discrete feature, 2 tau_d bounds per continuous one.
  uint64_t encoded = 0;
  for (const FeatureSpec& spec : schema.features()) {
    encoded = add(encoded, spec.type == FeatureType::kDiscrete
                               ? spec.categories.size()
                               : mul(2, static_cast<uint64_t>(config.tau_d)));
  }
  if (overflow || encoded == 0 || encoded > INT_MAX) {
    return Status::InvalidArgument(
        "model schema must encode between 1 and INT_MAX inputs");
  }
  uint64_t in_dim = encoded;
  uint64_t rules = config.input_skip ? encoded : 0;
  uint64_t params = 0;
  for (const auto& [conj, disj] : config.logic_layers) {
    if (conj < 0 || disj < 0 || int64_t{conj} + disj < 1) {
      return Status::InvalidArgument(StrFormat(
          "model layer widths must be >= 0 and sum to >= 1, got (%d, %d)",
          conj, disj));
    }
    const uint64_t width = static_cast<uint64_t>(conj) + disj;
    params = add(params, mul(width, in_dim));
    rules = add(rules, width);
    in_dim = width;
  }
  if (rules == 0 || rules > INT_MAX) {
    return Status::InvalidArgument(
        "model must have between 1 and INT_MAX rules");
  }
  params = add(params, add(mul(rules, 2), 2));  // vote weights + biases
  if (overflow) {
    return Status::InvalidArgument(
        "model shape implies more than 2^64 parameters");
  }
  if (params != param_count) {
    return Status::InvalidArgument(StrFormat(
        "model parameter count %llu does not match the architecture/schema "
        "(%llu expected)",
        static_cast<unsigned long long>(param_count),
        static_cast<unsigned long long>(params)));
  }
  return Status::OK();
}

LogicalNet::LogicalNet(SchemaPtr schema, const LogicalNetConfig& config)
    : config_(config),
      encoder_([&] {
        Rng rng(config.seed);
        return BinarizationLayer(std::move(schema), config.tau_d, rng);
      }()),
      linear_(1, 2),  // resized below once the rule count is known
      num_rules_(0) {
  Rng rng(config_.seed + 1);
  int in_dim = encoder_.encoded_size();
  int total_logic_out = 0;
  for (const auto& [num_conj, num_disj] : config_.logic_layers) {
    logic_layers_.emplace_back(in_dim, num_conj, num_disj);
    logic_layers_.back().InitSparse(rng, config_.fan_in);
    in_dim = num_conj + num_disj;
    total_logic_out += in_dim;
  }
  // Only layer 0 reads the encoder; the layers above read fuzzy nodes.
  if (!logic_layers_.empty()) {
    logic_layers_[0].SetLayout(encoder_.InputLayout());
  }
  num_rules_ = total_logic_out +
               (config_.input_skip ? encoder_.encoded_size() : 0);
  CTFL_CHECK(num_rules_ > 0);
  linear_ = LinearLayer(num_rules_, 2);
  linear_.InitRandom(rng, config_.linear_init_scale);
}

std::pair<int, int> LogicalNet::RuleSource(int j) const {
  CTFL_CHECK(j >= 0 && j < num_rules_);
  if (config_.input_skip) {
    if (j < encoder_.encoded_size()) return {-1, j};
    j -= encoder_.encoded_size();
  }
  for (size_t layer = 0; layer < logic_layers_.size(); ++layer) {
    if (j < logic_layers_[layer].out_dim()) {
      return {static_cast<int>(layer), j};
    }
    j -= logic_layers_[layer].out_dim();
  }
  CTFL_LOG_FATAL << "rule index out of range";
}

Matrix LogicalNet::EncodeBatch(const Dataset& dataset,
                               const std::vector<size_t>& indices) const {
  if (!indices.empty()) return encoder_.EncodeBatch(dataset, indices);
  std::vector<size_t> all(dataset.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  return encoder_.EncodeBatch(dataset, all);
}

namespace {

// Concatenates [encoded (optional)] + layer outputs into the rule matrix.
Matrix ConcatRules(const Matrix& encoded, const std::vector<Matrix>& outs,
                   bool input_skip, int num_rules) {
  const size_t batch = encoded.rows();
  Matrix rules(batch, num_rules);
  for (size_t r = 0; r < batch; ++r) {
    double* dst = rules.row(r);
    size_t offset = 0;
    if (input_skip) {
      const double* src = encoded.row(r);
      for (size_t c = 0; c < encoded.cols(); ++c) dst[offset + c] = src[c];
      offset += encoded.cols();
    }
    for (const Matrix& out : outs) {
      const double* src = out.row(r);
      for (size_t c = 0; c < out.cols(); ++c) dst[offset + c] = src[c];
      offset += out.cols();
    }
  }
  return rules;
}

/// The continuous forward of every logic layer on the packed `input` into
/// `outs`, with layer 0's group codes in `layer0`.
void ForwardLayers(const LogicalNet& net, const PackedRows& input,
                   std::vector<Matrix>* outs,
                   logic_kernel::GroupCodes* layer0) {
  const std::vector<LogicLayer>& layers = net.logic_layers();
  outs->resize(layers.size());
  if (layers.empty()) return;
  (*outs)[0] = layers[0].ForwardContinuous(input, layer0);
  for (size_t l = 1; l < layers.size(); ++l) {
    (*outs)[l] = layers[l].ForwardContinuous((*outs)[l - 1]);
  }
}

/// One bit-packed discrete pass (DESIGN.md §16) on a plan's active-input
/// lists: one word per encoded input and per logic node for the current
/// block of up to 64 records.
class DiscreteBlockPass {
 public:
  DiscreteBlockPass(const LogicalNet& net,
                    const LogicalNet::DiscretePlan& plan)
      : net_(net), plan_(plan) {
    size_t words = static_cast<size_t>(net.encoded_size());
    for (const LogicLayer& layer : net.logic_layers()) {
      words += static_cast<size_t>(layer.out_dim());
    }
    words_.resize(words);
  }

  /// Runs every logic layer on rows [lo, lo + n) of the packed `x`: each
  /// row's set bits become its bit of the input words.
  void Run(const PackedRows& x, size_t lo, size_t n) {
    const size_t in_dim = static_cast<size_t>(net_.encoded_size());
    CTFL_CHECK(n <= kRecordsPerWord && lo + n <= x.rows() &&
               x.cols() == in_dim);
    std::fill(words_.begin(), words_.begin() + in_dim, uint64_t{0});
    for (size_t r = 0; r < n; ++r) {
      const uint64_t* bits = x.row(lo + r);
      for (size_t w = 0; w < x.words(); ++w) {
        for (uint64_t m = bits[w]; m != 0; m &= m - 1) {
          words_[w * 64 + __builtin_ctzll(m)] |= uint64_t{1} << r;
        }
      }
    }
    RunLayers();
  }

  /// The logits of the block's records into rows [dst, dst + n) of
  /// `logits`. The packed vote (DESIGN.md §16.5) when every vote weight is
  /// finite; otherwise the dense product on the block's FillRules rows.
  void Vote(size_t n, Matrix* logits, size_t dst) {
    const LinearLayer& linear = net_.linear();
    if (plan_.votes_finite) {
      linear.ForwardPacked(RuleWords(), n, logits, dst);
      return;
    }
    if (rules_.rows() != n) rules_ = Matrix(n, net_.num_rules());
    FillRules(n, &rules_);
    const Matrix block = linear.Forward(rules_);
    for (size_t r = 0; r < n; ++r) {
      std::copy(block.row(r), block.row(r) + block.cols(),
                logits->row(dst + r));
    }
  }

  /// Writes the block's rule vectors into the first n rows of `rules`,
  /// every coordinate 0.0 / 1.0: the skip coordinates the input words'
  /// bits, the logic nodes their words' bits.
  void FillRules(size_t n, Matrix* rules) const {
    const size_t num_rules = static_cast<size_t>(net_.num_rules());
    const uint64_t* rule_words = RuleWords();
    for (size_t r = 0; r < n; ++r) {
      double* out = rules->row(r);
      for (size_t j = 0; j < num_rules; ++j) {
        out[j] = (rule_words[j] >> r) & 1 ? 1.0 : 0.0;
      }
    }
  }

  /// Rule-activation bitset of record r of the block. The skip
  /// coordinates read the packed inputs, which equal `encoded > 0.5` for
  /// the encoder's 0/1 output.
  Bitset Activation(size_t r) const {
    const size_t num_rules = static_cast<size_t>(net_.num_rules());
    const uint64_t* rule_words = RuleWords();
    std::vector<uint64_t> bits((num_rules + 63) / 64, 0);
    for (size_t j = 0; j < num_rules; ++j) {
      bits[j / 64] |= ((rule_words[j] >> r) & 1) << (j % 64);
    }
    return Bitset::FromWords(num_rules, std::move(bits)).value();
  }

 private:
  void RunLayers() {
    uint64_t* in = words_.data();
    for (size_t l = 0; l < plan_.active.size(); ++l) {
      const LogicLayer& layer = net_.logic_layers()[l];
      uint64_t* out = in + layer.in_dim();
      layer.ForwardPacked(plan_.active[l], in, out);
      in = out;
    }
  }

  /// One word per rule coordinate.
  const uint64_t* RuleWords() const {
    return words_.data() +
           (net_.config().input_skip ? 0 : net_.encoded_size());
  }

  const LogicalNet& net_;
  const LogicalNet::DiscretePlan& plan_;
  /// [encoded inputs | layer 0 nodes | layer 1 nodes | ...]
  std::vector<uint64_t> words_;
  /// The dense fallback's rule rows.
  Matrix rules_;
};

/// Discrete logits of every packed row of `x`, 64 rows at a time.
Matrix DiscreteLogits(const LogicalNet& net, const PackedRows& x) {
  const LogicalNet::DiscretePlan plan(net);
  DiscreteBlockPass pass(net, plan);
  Matrix logits(x.rows(), net.linear().out_dim());
  for (size_t lo = 0; lo < x.rows(); lo += kRecordsPerWord) {
    const size_t n = std::min(kRecordsPerWord, x.rows() - lo);
    pass.Run(x, lo, n);
    pass.Vote(n, &logits, lo);
  }
  return logits;
}

/// `encoded`, packed; every element must be 0.0 or 1.0, as the encoder
/// writes it.
void PackEncoded(const Matrix& encoded, PackedRows* out) {
  CTFL_CHECK(PackBinary(encoded, out))
      << "an encoded batch must hold only 0.0 and 1.0";
}

/// Eq. (3): the class with the larger logit, ties toward the positive one.
int PredictedClass(const Matrix& logits, size_t r) {
  return logits(r, 1) >= logits(r, 0) ? 1 : 0;
}

/// Deployed inference over records at(0) .. at(count - 1), 64 at a time.
/// Fills predicted[i] and activations[i] for whichever output is non-null.
template <typename InstanceAt>
void InferBlocks(const LogicalNet& net, const LogicalNet::DiscretePlan& plan,
                 size_t count, InstanceAt at, uint8_t* predicted,
                 Bitset* activations) {
  DiscreteBlockPass pass(net, plan);
  PackedRows block;
  Matrix logits;
  for (size_t lo = 0; lo < count; lo += kRecordsPerWord) {
    const size_t n = std::min(kRecordsPerWord, count - lo);
    if (logits.rows() != n) logits = Matrix(n, net.linear().out_dim());
    // The encoder's output is 0/1: records go straight into bits, with no
    // encoded double block.
    block.Resize(n, static_cast<size_t>(net.encoded_size()));
    for (size_t r = 0; r < n; ++r) {
      net.encoder().EncodeRow(at(lo + r), block.row(r));
    }
    pass.Run(block, 0, n);
    if (predicted != nullptr) {
      // The same vote as ForwardDiscrete, so each record's logits are the
      // per-record ones.
      pass.Vote(n, &logits, 0);
      for (size_t r = 0; r < n; ++r) {
        predicted[lo + r] = static_cast<uint8_t>(PredictedClass(logits, r));
      }
    }
    if (activations != nullptr) {
      for (size_t r = 0; r < n; ++r) activations[lo + r] = pass.Activation(r);
    }
  }
}

}  // namespace

LogicalNet::DiscretePlan::DiscretePlan(const LogicalNet& net)
    : active(net.logic_layers().size()),
      votes_finite(net.linear().WeightsFinite()) {
  for (size_t l = 0; l < active.size(); ++l) {
    net.logic_layers()[l].BuildActiveLists(&active[l]);
  }
}

Matrix LogicalNet::ForwardContinuous(const Matrix& encoded,
                                     Cache* cache) const {
  Cache own;
  Cache& c = cache != nullptr ? *cache : own;
  PackEncoded(encoded, &c.input);
  ForwardLayers(*this, c.input, &c.layer_out, &c.layer0);
  return linear_.Forward(
      ConcatRules(encoded, c.layer_out, config_.input_skip, num_rules_));
}

Matrix LogicalNet::ForwardDiscrete(const Matrix& encoded) const {
  PackedRows packed;
  PackEncoded(encoded, &packed);
  return DiscreteLogits(*this, packed);
}

Matrix LogicalNet::ForwardGrafted(const PackedRows& batch,
                                  Cache* cache) const {
  CTFL_CHECK(static_cast<int>(batch.cols()) == encoded_size());
  cache->input = batch;
  ForwardLayers(*this, cache->input, &cache->layer_out, &cache->layer0);
  return DiscreteLogits(*this, cache->input);
}

void LogicalNet::Backward(const Cache& cache, const Matrix& dlogits) {
  CTFL_CHECK(cache.layer_out.size() == logic_layers_.size());
  // The vote layer's parameter gradients read the *continuous* rule
  // activations, while dlogits came from the discrete loss: that asymmetry
  // is exactly the gradient-grafting update.
  std::vector<LinearLayer::Columns> rules;
  size_t offset = 0;
  if (config_.input_skip) {
    rules.push_back(LinearLayer::Columns{nullptr, &cache.input});
    offset = static_cast<size_t>(encoded_size());
  }
  std::vector<size_t> layer_offset;
  for (const Matrix& out : cache.layer_out) {
    rules.push_back({&out, nullptr, offset});
    layer_offset.push_back(offset);
    offset += out.cols();
  }
  linear_.BackwardParams(rules, dlogits);

  // Only the logic layers consume the rule gradient: each layer's columns
  // go straight into its upstream gradient.
  const size_t batch = dlogits.rows();
  std::vector<Matrix> dout(logic_layers_.size());
  for (size_t layer = 0; layer < logic_layers_.size(); ++layer) {
    dout[layer] = Matrix(batch, logic_layers_[layer].out_dim());
    linear_.InputGradient(dlogits, layer_offset[layer], &dout[layer]);
  }

  // Reverse pass through the logic layers; each layer's dx adds to the
  // previous layer's upstream gradient.
  for (size_t layer = logic_layers_.size(); layer-- > 1;) {
    Matrix dx = logic_layers_[layer].Backward(
        cache.layer_out[layer - 1], cache.layer_out[layer], dout[layer]);
    dout[layer - 1].Axpy(1.0, dx);
  }
  // The encoder input has no parameters, so layer 0's input gradient has
  // no consumer: it accumulates weight gradients only.
  if (!logic_layers_.empty()) {
    logic_layers_[0].BackwardWeights(cache.input, cache.layer_out[0],
                                     dout[0], &cache.layer0);
  }
}

void LogicalNet::ZeroGrads() {
  for (LogicLayer& layer : logic_layers_) layer.grads().Fill(0.0);
  linear_.weight_grads().Fill(0.0);
  linear_.bias_grads().Fill(0.0);
}

void LogicalNet::ProjectWeights() {
  for (LogicLayer& layer : logic_layers_) layer.ProjectWeights();
}

std::vector<ParamSlot> LogicalNet::ParamSlots() {
  std::vector<ParamSlot> slots;
  for (LogicLayer& layer : logic_layers_) {
    slots.push_back({&layer.weights(), &layer.grads()});
  }
  slots.push_back({&linear_.weights(), &linear_.weight_grads()});
  slots.push_back({&linear_.bias(), &linear_.bias_grads()});
  return slots;
}

std::vector<double> LogicalNet::GetParameters() const {
  std::vector<double> flat;
  flat.reserve(NumParameters());
  for (const LogicLayer& layer : logic_layers_) {
    const Matrix& w = layer.weights();
    flat.insert(flat.end(), w.data(), w.data() + w.size());
  }
  const Matrix& lw = linear_.weights();
  flat.insert(flat.end(), lw.data(), lw.data() + lw.size());
  const Matrix& lb = linear_.bias();
  flat.insert(flat.end(), lb.data(), lb.data() + lb.size());
  return flat;
}

void LogicalNet::SetParameters(const std::vector<double>& flat) {
  CTFL_CHECK(flat.size() == NumParameters());
  size_t offset = 0;
  auto copy_into = [&](Matrix& m) {
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = flat[offset + i];
    offset += m.size();
  };
  for (LogicLayer& layer : logic_layers_) copy_into(layer.weights());
  copy_into(linear_.weights());
  copy_into(linear_.bias());
}

size_t LogicalNet::NumParameters() const {
  size_t n = 0;
  for (const LogicLayer& layer : logic_layers_) n += layer.weights().size();
  n += linear_.weights().size() + linear_.bias().size();
  return n;
}

int LogicalNet::Predict(const Instance& instance) const {
  return Infer(instance).predicted;
}

double LogicalNet::Accuracy(const Dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  std::vector<uint8_t> predicted;
  InferDataset(dataset, &predicted, nullptr);
  size_t correct = 0;
  for (size_t r = 0; r < dataset.size(); ++r) {
    if (predicted[r] == dataset.instance(r).label) ++correct;
  }
  return static_cast<double>(correct) / dataset.size();
}

Bitset LogicalNet::RuleActivations(const Instance& instance) const {
  return Infer(instance).activation;
}

LogicalNet::Inference LogicalNet::Infer(const Instance& instance) const {
  return Infer(instance, DiscretePlan(*this));
}

LogicalNet::Inference LogicalNet::Infer(const Instance& instance,
                                        const DiscretePlan& plan) const {
  uint8_t predicted = 0;
  Inference out;
  InferBlocks(
      *this, plan, 1, [&](size_t) -> const Instance& { return instance; },
      &predicted, &out.activation);
  out.predicted = predicted;
  return out;
}

void LogicalNet::InferDataset(const Dataset& dataset,
                              std::vector<uint8_t>* predicted,
                              std::vector<Bitset>* activations) const {
  if (predicted != nullptr) predicted->assign(dataset.size(), 0);
  if (activations != nullptr) {
    activations->clear();
    activations->resize(dataset.size());
  }
  InferBlocks(
      *this, DiscretePlan(*this), dataset.size(),
      [&](size_t i) -> const Instance& { return dataset.instance(i); },
      predicted != nullptr ? predicted->data() : nullptr,
      activations != nullptr ? activations->data() : nullptr);
}

std::vector<TestForward> InferTestForwards(const LogicalNet& net,
                                           const Dataset& test) {
  std::vector<uint8_t> predicted;
  std::vector<Bitset> activations;
  net.InferDataset(test, &predicted, &activations);
  std::vector<TestForward> forwards(test.size());
  for (size_t t = 0; t < test.size(); ++t) {
    forwards[t].label = static_cast<uint8_t>(test.instance(t).label);
    forwards[t].predicted = predicted[t];
    forwards[t].activation = std::move(activations[t]);
  }
  return forwards;
}

int LogicalNet::RuleClass(int j) const {
  return linear_.weights()(1, j) >= linear_.weights()(0, j) ? 1 : 0;
}

double LogicalNet::RuleWeight(int j) const {
  return std::abs(linear_.weights()(1, j) - linear_.weights()(0, j));
}

}  // namespace ctfl
