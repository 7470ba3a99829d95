#include "ctfl/nn/binarization_layer.h"

#include <algorithm>

#include "ctfl/util/logging.h"

namespace ctfl {

BinarizationLayer::BinarizationLayer(SchemaPtr schema, int tau_d, Rng& rng)
    : schema_(std::move(schema)), tau_d_(tau_d) {
  CTFL_CHECK(tau_d_ > 0);
  for (int f = 0; f < schema_->num_features(); ++f) {
    const FeatureSpec& spec = schema_->feature(f);
    if (spec.type == FeatureType::kDiscrete) {
      for (int c = 0; c < spec.num_categories(); ++c) {
        EncodedPredicate p;
        p.feature = f;
        p.kind = EncodedPredicate::Kind::kEquals;
        p.category = c;
        predicates_.push_back(p);
      }
      continue;
    }
    // Random candidate bounds drawn from the public value domain only
    // (the privacy constraint); sorted for readability of extracted rules.
    std::vector<double> lower(tau_d_), upper(tau_d_);
    for (double& b : lower) b = rng.Uniform(spec.lo, spec.hi);
    for (double& b : upper) b = rng.Uniform(spec.lo, spec.hi);
    std::sort(lower.begin(), lower.end());
    std::sort(upper.begin(), upper.end());
    for (double b : lower) {
      EncodedPredicate p;
      p.feature = f;
      p.kind = EncodedPredicate::Kind::kGreater;
      p.threshold = b;
      predicates_.push_back(p);
    }
    for (double b : upper) {
      EncodedPredicate p;
      p.feature = f;
      p.kind = EncodedPredicate::Kind::kLess;
      p.threshold = b;
      predicates_.push_back(p);
    }
  }
}

bool BinarizationLayer::Holds(int j, const Instance& instance) const {
  const EncodedPredicate& p = predicates_[j];
  const double v = instance.values[p.feature];
  switch (p.kind) {
    case EncodedPredicate::Kind::kGreater:
      return v > p.threshold;
    case EncodedPredicate::Kind::kLess:
      return v < p.threshold;
    case EncodedPredicate::Kind::kEquals:
      // Compared as doubles: a value that is not a category index (NaN,
      // ±inf, out of int range) matches none, with no float-to-int cast.
      return v == static_cast<double>(p.category);
  }
  return false;
}

void BinarizationLayer::Encode(const Instance& instance, double* out) const {
  for (size_t j = 0; j < predicates_.size(); ++j) {
    out[j] = Holds(static_cast<int>(j), instance) ? 1.0 : 0.0;
  }
}

void BinarizationLayer::EncodeRow(const Instance& instance,
                                  uint64_t* row) const {
  for (size_t j = 0; j < predicates_.size(); ++j) {
    if (Holds(static_cast<int>(j), instance)) {
      row[j / 64] |= uint64_t{1} << (j % 64);
    }
  }
}

Matrix BinarizationLayer::EncodeBatch(
    const Dataset& dataset, const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), predicates_.size());
  for (size_t r = 0; r < indices.size(); ++r) {
    Encode(dataset.instance(indices[r]), out.row(r));
  }
  return out;
}

std::vector<logic_kernel::InputGroup> BinarizationLayer::InputLayout()
    const {
  std::vector<logic_kernel::InputGroup> layout;
  for (int j = 0; j < encoded_size();) {
    const EncodedPredicate& p = predicates_[j];
    logic_kernel::InputGroup group;
    group.first = j;
    group.size = 0;
    while (j < encoded_size() && predicates_[j].feature == p.feature &&
           predicates_[j].kind == p.kind) {
      ++group.size;
      ++j;
    }
    switch (p.kind) {
      case EncodedPredicate::Kind::kGreater:
        group.kind = logic_kernel::GroupKind::kPrefix;
        break;
      case EncodedPredicate::Kind::kLess:
        group.kind = logic_kernel::GroupKind::kSuffix;
        break;
      case EncodedPredicate::Kind::kEquals:
        group.kind = logic_kernel::GroupKind::kOneHot;
        break;
    }
    layout.push_back(group);
  }
  return layout;
}

PackedRows BinarizationLayer::EncodeDataset(const Dataset& dataset) const {
  PackedRows out(dataset.size(), predicates_.size());
  for (size_t r = 0; r < dataset.size(); ++r) {
    EncodeRow(dataset.instance(r), out.row(r));
  }
  return out;
}

}  // namespace ctfl
