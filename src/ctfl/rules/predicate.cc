#include "ctfl/rules/predicate.h"

#include "ctfl/util/string_util.h"

namespace ctfl {

bool Predicate::Evaluate(const Instance& instance) const {
  const double v = instance.values[feature];
  switch (op) {
    case Op::kGt:
      return v > threshold;
    case Op::kLt:
      return v < threshold;
    // Compared as doubles, as the encoder does: no float-to-int cast of a
    // value that may not be a category index.
    case Op::kEq:
      return v == static_cast<double>(category);
    case Op::kNeq:
      return v != static_cast<double>(category);
  }
  return false;
}

std::string Predicate::ToString(const FeatureSchema& schema) const {
  const FeatureSpec& spec = schema.feature(feature);
  switch (op) {
    case Op::kGt:
      return StrFormat("%s > %.6g", spec.name.c_str(), threshold);
    case Op::kLt:
      return StrFormat("%s < %.6g", spec.name.c_str(), threshold);
    case Op::kEq:
      return spec.name + " = " + spec.categories[category];
    case Op::kNeq:
      return spec.name + " != " + spec.categories[category];
  }
  return "?";
}

Predicate Predicate::FromEncoded(const EncodedPredicate& encoded) {
  Predicate p;
  p.feature = encoded.feature;
  switch (encoded.kind) {
    case EncodedPredicate::Kind::kGreater:
      p.op = Op::kGt;
      p.threshold = encoded.threshold;
      break;
    case EncodedPredicate::Kind::kLess:
      p.op = Op::kLt;
      p.threshold = encoded.threshold;
      break;
    case EncodedPredicate::Kind::kEquals:
      p.op = Op::kEq;
      p.category = encoded.category;
      break;
  }
  return p;
}

bool operator==(const Predicate& a, const Predicate& b) {
  if (a.feature != b.feature || a.op != b.op) return false;
  if (a.op == Predicate::Op::kGt || a.op == Predicate::Op::kLt) {
    return a.threshold == b.threshold;
  }
  return a.category == b.category;
}

}  // namespace ctfl
