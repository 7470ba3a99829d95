#ifndef CTFL_DATA_DATASET_H_
#define CTFL_DATA_DATASET_H_

#include <string>
#include <vector>

#include "ctfl/data/schema.h"
#include "ctfl/util/result.h"

namespace ctfl {

/// One labeled example. Discrete features store the category index as a
/// double; continuous features store the raw value.
struct Instance {
  std::vector<double> values;
  int label = 0;  // 0 = negative, 1 = positive
};

/// An in-memory labeled dataset bound to a FeatureSchema.
class Dataset {
 public:
  explicit Dataset(SchemaPtr schema) : schema_(std::move(schema)) {}

  const SchemaPtr& schema() const { return schema_; }
  size_t size() const { return instances_.size(); }
  bool empty() const { return instances_.empty(); }

  const Instance& instance(size_t i) const { return instances_[i]; }
  const std::vector<Instance>& instances() const { return instances_; }

  /// Validates the instance against the schema before appending.
  Status Append(Instance instance);

  /// Appends without validation (hot paths with pre-validated data).
  void AppendUnchecked(Instance instance) {
    instances_.push_back(std::move(instance));
  }

  /// Appends every instance of `other` (schemas must be compatible by
  /// feature count; callers are expected to share SchemaPtr instances).
  void Merge(const Dataset& other);

  /// New dataset containing instances_[i] for each i in `indices`.
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Number of instances per class: {negatives, positives}.
  std::vector<size_t> ClassCounts() const;

  /// Fraction of positive instances (0 if empty).
  double PositiveRate() const;

 private:
  SchemaPtr schema_;
  std::vector<Instance> instances_;
};

/// InvalidArgument unless every discrete value of `values` (one per feature
/// of `schema`) is a finite integer in [0, categories): checked before any
/// value is read as a category index, so that a NaN, an infinity or an
/// out-of-range value from an untrusted source never reaches a float-to-int
/// cast.
Status CheckDiscreteValues(const FeatureSchema& schema,
                           const std::vector<double>& values);

/// Parses one CSV row (feature fields in schema order plus a final label
/// field) into an Instance. The row-level half of LoadCsvDataset, exposed
/// so line-oriented front ends (`ctfl query --requests-file`, the query
/// service client) can parse single instances without a CSV file.
Result<Instance> ParseCsvInstanceRow(const SchemaPtr& schema,
                                     const std::vector<std::string>& fields);

/// Loads a dataset from CSV whose columns match `schema` feature names plus
/// a final "label" column containing the schema's label names.
Result<Dataset> LoadCsvDataset(const std::string& path, SchemaPtr schema);

/// Writes `dataset` as CSV (inverse of LoadCsvDataset).
Status SaveCsvDataset(const std::string& path, const Dataset& dataset);

}  // namespace ctfl

#endif  // CTFL_DATA_DATASET_H_
