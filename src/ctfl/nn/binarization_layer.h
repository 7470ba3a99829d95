#ifndef CTFL_NN_BINARIZATION_LAYER_H_
#define CTFL_NN_BINARIZATION_LAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ctfl/data/dataset.h"
#include "ctfl/nn/logic_kernel.h"
#include "ctfl/nn/matrix.h"
#include "ctfl/util/rng.h"

namespace ctfl {

/// Atomic predicate realized by one output bit of the encoder: either a
/// threshold test on a continuous feature or an equality test on a discrete
/// one. Rule extraction stitches these into symbolic rules.
struct EncodedPredicate {
  enum class Kind { kGreater, kLess, kEquals };
  int feature = 0;
  Kind kind = Kind::kEquals;
  double threshold = 0.0;  // continuous kinds
  int category = 0;        // kEquals
};

/// The paper's privacy-preserving input encoding (§V "Encode Input
/// Features"): discrete features become one-hot bits; each continuous
/// feature c in [lo, hi] becomes 2*tau_d indicator bits
/// [1(c > l_1..l_tau), 1(c < u_1..u_tau)] against bounds drawn only from
/// the public value domain — never from participant data. Which bounds
/// matter is learned downstream by the logical layers.
class BinarizationLayer {
 public:
  /// `tau_d` bounds per direction per continuous feature.
  BinarizationLayer(SchemaPtr schema, int tau_d, Rng& rng);

  const SchemaPtr& schema() const { return schema_; }
  int tau_d() const { return tau_d_; }

  /// Width of the encoded binary vector.
  int encoded_size() const { return static_cast<int>(predicates_.size()); }

  /// Encodes one instance into `out` (length encoded_size(), values 0/1).
  void Encode(const Instance& instance, double* out) const;

  /// Encode's 1.0s as the bits of `row` (ceil(encoded_size() / 64) words,
  /// cleared by the caller): bit j is set iff Encode writes 1.0 at j. One
  /// record of the packed encoding below.
  void EncodeRow(const Instance& instance, uint64_t* row) const;

  /// Encodes a whole dataset into a (n x encoded_size) matrix.
  Matrix EncodeBatch(const Dataset& dataset,
                     const std::vector<size_t>& indices) const;

  /// Encode's 1.0s of every record of `dataset`, packed record-major: bit
  /// j of row r is set iff Encode writes 1.0 at j for record r. The
  /// training input (DESIGN.md §16.4), about 1/64 of EncodeBatch's size.
  PackedRows EncodeDataset(const Dataset& dataset) const;

  /// The predicate realized by encoded bit `j`.
  const EncodedPredicate& predicate(int j) const { return predicates_[j]; }

  /// The encoded bits as groups that a record codes (DESIGN.md §16.2), in
  /// bit order: a discrete feature's categories are one kOneHot group (a
  /// record sets at most one; a value that is no category sets none), a
  /// continuous feature's tau_d ascending `>` bounds a kPrefix group and its
  /// tau_d ascending `<` bounds a kSuffix group (a NaN sets neither).
  std::vector<logic_kernel::InputGroup> InputLayout() const;

 private:
  /// Whether `instance` satisfies predicate j.
  bool Holds(int j, const Instance& instance) const;

  SchemaPtr schema_;
  int tau_d_;
  std::vector<EncodedPredicate> predicates_;
};

}  // namespace ctfl

#endif  // CTFL_NN_BINARIZATION_LAYER_H_
