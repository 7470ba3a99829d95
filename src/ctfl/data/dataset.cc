#include "ctfl/data/dataset.h"

#include "ctfl/util/csv.h"
#include "ctfl/util/logging.h"
#include "ctfl/util/string_util.h"

namespace ctfl {

Status Dataset::Append(Instance instance) {
  if (static_cast<int>(instance.values.size()) != schema_->num_features()) {
    return Status::InvalidArgument(
        StrFormat("instance width %zu != schema width %d",
                  instance.values.size(), schema_->num_features()));
  }
  if (instance.label != 0 && instance.label != 1) {
    return Status::InvalidArgument("label must be 0 or 1");
  }
  CTFL_RETURN_IF_ERROR(CheckDiscreteValues(*schema_, instance.values));
  instances_.push_back(std::move(instance));
  return Status::OK();
}

Status CheckDiscreteValues(const FeatureSchema& schema,
                           const std::vector<double>& values) {
  CTFL_CHECK(static_cast<int>(values.size()) == schema.num_features());
  for (int f = 0; f < schema.num_features(); ++f) {
    const FeatureSpec& spec = schema.feature(f);
    if (spec.type != FeatureType::kDiscrete) continue;
    // Range first, as doubles (NaN fails both comparisons), then
    // integrality: only then is the cast defined.
    const double v = values[f];
    if (!(v >= 0.0 && v < static_cast<double>(spec.num_categories())) ||
        v != static_cast<double>(static_cast<int>(v))) {
      return Status::InvalidArgument(
          StrFormat("%s must be a category index in [0, %d), got %.17g",
                    spec.name.c_str(), spec.num_categories(), v));
    }
  }
  return Status::OK();
}

void Dataset::Merge(const Dataset& other) {
  CTFL_CHECK(schema_->num_features() == other.schema_->num_features());
  instances_.insert(instances_.end(), other.instances_.begin(),
                    other.instances_.end());
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(schema_);
  out.instances_.reserve(indices.size());
  for (size_t i : indices) {
    CTFL_CHECK(i < instances_.size());
    out.instances_.push_back(instances_[i]);
  }
  return out;
}

std::vector<size_t> Dataset::ClassCounts() const {
  std::vector<size_t> counts(2, 0);
  for (const Instance& inst : instances_) ++counts[inst.label];
  return counts;
}

double Dataset::PositiveRate() const {
  if (instances_.empty()) return 0.0;
  return static_cast<double>(ClassCounts()[1]) / instances_.size();
}

Result<Instance> ParseCsvInstanceRow(const SchemaPtr& schema,
                                     const std::vector<std::string>& fields) {
  const int nf = schema->num_features();
  if (static_cast<int>(fields.size()) != nf + 1) {
    return Status::InvalidArgument(
        StrFormat("expected %d fields (features + label), got %zu", nf + 1,
                  fields.size()));
  }
  Instance inst;
  inst.values.resize(nf);
  for (int f = 0; f < nf; ++f) {
    const FeatureSpec& spec = schema->feature(f);
    if (spec.type == FeatureType::kDiscrete) {
      CTFL_ASSIGN_OR_RETURN(int c, schema->CategoryIndex(f, fields[f]));
      inst.values[f] = c;
    } else {
      CTFL_ASSIGN_OR_RETURN(double v, ParseDouble(fields[f]));
      inst.values[f] = v;
    }
  }
  const std::string& label = fields[nf];
  if (label == schema->label_name(0)) {
    inst.label = 0;
  } else if (label == schema->label_name(1)) {
    inst.label = 1;
  } else {
    return Status::InvalidArgument("unknown label " + label);
  }
  return inst;
}

Result<Dataset> LoadCsvDataset(const std::string& path, SchemaPtr schema) {
  CTFL_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(path, /*has_header=*/true));
  const int nf = schema->num_features();
  if (static_cast<int>(table.header.size()) != nf + 1) {
    return Status::InvalidArgument(
        StrFormat("%s: expected %d columns, got %zu", path.c_str(), nf + 1,
                  table.header.size()));
  }
  Dataset dataset(schema);
  for (const auto& row : table.rows) {
    CTFL_ASSIGN_OR_RETURN(Instance inst, ParseCsvInstanceRow(schema, row));
    CTFL_RETURN_IF_ERROR(dataset.Append(std::move(inst)));
  }
  return dataset;
}

Status SaveCsvDataset(const std::string& path, const Dataset& dataset) {
  const SchemaPtr& schema = dataset.schema();
  CsvTable table;
  for (const auto& spec : schema->features()) table.header.push_back(spec.name);
  table.header.push_back("label");
  for (const Instance& inst : dataset.instances()) {
    std::vector<std::string> row;
    row.reserve(inst.values.size() + 1);
    for (int f = 0; f < schema->num_features(); ++f) {
      const FeatureSpec& spec = schema->feature(f);
      if (spec.type == FeatureType::kDiscrete) {
        row.push_back(spec.categories[static_cast<int>(inst.values[f])]);
      } else {
        row.push_back(StrFormat("%.6g", inst.values[f]));
      }
    }
    row.push_back(schema->label_name(inst.label));
    table.rows.push_back(std::move(row));
  }
  return WriteCsv(path, table);
}

}  // namespace ctfl
