#include "ctfl/nn/logical_net.h"

#include <algorithm>
#include <cmath>

#include "ctfl/util/logging.h"

namespace ctfl {

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

}  // namespace

Matrix LogicalNet::ForwardContinuous(const Matrix& encoded,
                                     Cache* cache) const {
  std::vector<Matrix> outs;
  const Matrix* layer_in = &encoded;
  for (const LogicLayer& layer : logic_layers_) {
    LogicLayer::StepTables* tables =
        cache != nullptr && outs.empty() ? &cache->layer0 : nullptr;
    outs.push_back(layer.ForwardContinuous(*layer_in, tables));
    layer_in = &outs.back();
  }
  Matrix rules = ConcatRules(encoded, outs, config_.input_skip, num_rules_);
  Matrix logits = linear_.Forward(rules);
  if (cache != nullptr) {
    cache->encoded = encoded;
    cache->layer_out = std::move(outs);
    cache->rules = std::move(rules);
  }
  return logits;
}

namespace {

/// One bit-packed discrete pass (DESIGN.md §16): every layer's active-input
/// lists, built once per pass, and one word per encoded input and per
/// logic node for the current block of up to 64 records.
class DiscreteBlockPass {
 public:
  explicit DiscreteBlockPass(const LogicalNet& net)
      : net_(net), active_(net.logic_layers().size()) {
    size_t words = static_cast<size_t>(net.encoded_size());
    for (size_t l = 0; l < active_.size(); ++l) {
      net.logic_layers()[l].BuildActiveLists(&active_[l]);
      words += static_cast<size_t>(net.logic_layers()[l].out_dim());
    }
    words_.resize(words);
  }

  /// Packs rows [lo, lo + n) of the encoded matrix `x` and runs every
  /// logic layer on them.
  void Run(const Matrix& x, size_t lo, size_t n) {
    CTFL_CHECK(static_cast<int>(x.cols()) == net_.encoded_size());
    PackRows(x, lo, n, words_.data());
    uint64_t* in = words_.data();
    for (size_t l = 0; l < active_.size(); ++l) {
      const LogicLayer& layer = net_.logic_layers()[l];
      uint64_t* out = in + layer.in_dim();
      layer.ForwardPacked(active_[l], in, out);
      in = out;
    }
  }

  /// Writes the block's rule vectors into rows [dst, dst + n) of `rules`:
  /// the skip coordinates copy x's rows verbatim, as ConcatRules does, and
  /// the logic nodes become 0.0 / 1.0.
  void FillRules(const Matrix& x, size_t lo, size_t n, Matrix* rules,
                 size_t dst) const {
    const size_t skip = net_.config().input_skip ? x.cols() : 0;
    const size_t nodes = static_cast<size_t>(net_.num_rules()) - skip;
    const uint64_t* logic = words_.data() + x.cols();
    for (size_t r = 0; r < n; ++r) {
      double* out = rules->row(dst + r);
      std::copy(x.row(lo + r), x.row(lo + r) + skip, out);
      for (size_t j = 0; j < nodes; ++j) {
        out[skip + j] = (logic[j] >> r) & 1 ? 1.0 : 0.0;
      }
    }
  }

  /// Rule-activation bitset of record r of the block. The skip
  /// coordinates read the packed inputs, which equal `encoded > 0.5` for
  /// the encoder's 0/1 output.
  Bitset Activation(size_t r) const {
    const size_t num_rules = static_cast<size_t>(net_.num_rules());
    const uint64_t* rule_words =
        words_.data() + (net_.config().input_skip ? 0 : net_.encoded_size());
    std::vector<uint64_t> bits((num_rules + 63) / 64, 0);
    for (size_t j = 0; j < num_rules; ++j) {
      bits[j / 64] |= ((rule_words[j] >> r) & 1) << (j % 64);
    }
    return Bitset::FromWords(num_rules, std::move(bits)).value();
  }

 private:
  const LogicalNet& net_;
  std::vector<LogicLayer::ActiveLists> active_;
  /// [encoded inputs | layer 0 nodes | layer 1 nodes | ...]
  std::vector<uint64_t> words_;
};

/// Eq. (3): the class with the larger logit, ties toward the positive one.
int PredictedClass(const Matrix& logits, size_t r) {
  return logits(r, 1) >= logits(r, 0) ? 1 : 0;
}

/// Deployed inference over records at(0) .. at(count - 1), 64 at a time.
/// Fills predicted[i] and activations[i] for whichever output is non-null.
template <typename InstanceAt>
void InferBlocks(const LogicalNet& net, size_t count, InstanceAt at,
                 uint8_t* predicted, Bitset* activations) {
  DiscreteBlockPass pass(net);
  Matrix block;
  Matrix rules;
  for (size_t lo = 0; lo < count; lo += kRecordsPerWord) {
    const size_t n = std::min(kRecordsPerWord, count - lo);
    if (block.rows() != n) {
      block = Matrix(n, net.encoded_size());
      rules = Matrix(n, net.num_rules());
    }
    for (size_t r = 0; r < n; ++r) {
      net.encoder().Encode(at(lo + r), block.row(r));
    }
    pass.Run(block, 0, n);
    if (predicted != nullptr) {
      // The vote layer runs on the same 0/1 rule rows as ForwardDiscrete,
      // so each row's logits are the per-record ones.
      pass.FillRules(block, 0, n, &rules, 0);
      const Matrix logits = net.linear().Forward(rules);
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

Matrix LogicalNet::RulesDiscrete(const Matrix& encoded) const {
  DiscreteBlockPass pass(*this);
  Matrix rules(encoded.rows(), num_rules_);
  for (size_t lo = 0; lo < encoded.rows(); lo += kRecordsPerWord) {
    const size_t n = std::min(kRecordsPerWord, encoded.rows() - lo);
    pass.Run(encoded, lo, n);
    pass.FillRules(encoded, lo, n, &rules, lo);
  }
  return rules;
}

Matrix LogicalNet::ForwardDiscrete(const Matrix& encoded) const {
  return linear_.Forward(RulesDiscrete(encoded));
}

void LogicalNet::Backward(const Cache& cache, const Matrix& dlogits) {
  // Note: linear_.Backward consumes the *continuous* rule activations; the
  // upstream dlogits came from the discrete loss — that asymmetry is
  // exactly the gradient-grafting update.
  Matrix drules = linear_.Backward(cache.rules, dlogits);

  // Split drules into per-segment upstream gradients.
  const size_t batch = drules.rows();
  size_t offset = config_.input_skip ? encoder_.encoded_size() : 0;
  std::vector<Matrix> dout(logic_layers_.size());
  for (size_t layer = 0; layer < logic_layers_.size(); ++layer) {
    const int width = logic_layers_[layer].out_dim();
    dout[layer] = Matrix(batch, width);
    for (size_t r = 0; r < batch; ++r) {
      const double* src = drules.row(r) + offset;
      double* dst = dout[layer].row(r);
      for (int c = 0; c < width; ++c) dst[c] = src[c];
    }
    offset += width;
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
    logic_layers_[0].BackwardWeights(cache.encoded, cache.layer_out[0],
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
  uint8_t predicted = 0;
  Inference out;
  InferBlocks(
      *this, 1, [&](size_t) -> const Instance& { return instance; },
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
      *this, dataset.size(),
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
