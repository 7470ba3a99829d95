#ifndef CTFL_RULES_PREDICATE_H_
#define CTFL_RULES_PREDICATE_H_

#include <string>

#include "ctfl/data/dataset.h"
#include "ctfl/nn/binarization_layer.h"

namespace ctfl {

/// Symbolic atomic predicate over one input feature (paper Def. III.1
/// building block): threshold tests for continuous features, equality /
/// inequality tests for discrete ones.
struct Predicate {
  enum class Op { kGt, kLt, kEq, kNeq };

  int feature = 0;
  Op op = Op::kEq;
  double threshold = 0.0;  // kGt / kLt
  int category = 0;        // kEq / kNeq

  /// e.g. "capital-gain > 21000", "marital-status = never".
  std::string ToString(const FeatureSchema& schema) const;

  /// Converts an encoder output bit into its symbolic predicate.
  static Predicate FromEncoded(const EncodedPredicate& encoded);
};

}  // namespace ctfl

#endif  // CTFL_RULES_PREDICATE_H_
