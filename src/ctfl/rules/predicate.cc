#include "ctfl/rules/predicate.h"

#include "ctfl/util/string_util.h"

namespace ctfl {

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

}  // namespace ctfl
