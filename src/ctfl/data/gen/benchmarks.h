#ifndef CTFL_DATA_GEN_BENCHMARKS_H_
#define CTFL_DATA_GEN_BENCHMARKS_H_

#include <string>
#include <vector>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/util/result.h"

namespace ctfl {

/// Names of the four paper benchmark datasets (Table IV).
inline constexpr const char* kBenchmarkNames[] = {"tic-tac-toe", "adult",
                                                  "bank", "dota2"};

/// Paper sizes for each benchmark (Table IV).
size_t BenchmarkDefaultSize(const std::string& name);

/// Synthetic recipe mirroring the named UCI/Kaggle dataset's schema,
/// marginals, class balance, and accuracy band (see DESIGN.md §5 for the
/// substitution rationale). Not defined for "tic-tac-toe", which is
/// reconstructed exactly by GenerateTicTacToe().
Result<SyntheticSpec> BenchmarkSpec(const std::string& name);

/// Schema of the named benchmark, "tic-tac-toe" included — the feature
/// space a CSV of that dataset must match.
Result<SchemaPtr> BenchmarkSchema(const std::string& name);

/// Generates the named benchmark with `n` instances (0 = the paper size).
/// "tic-tac-toe" ignores `n` and returns the exact 958-board dataset.
Result<Dataset> MakeBenchmark(const std::string& name, size_t n,
                              uint64_t seed);

}  // namespace ctfl

#endif  // CTFL_DATA_GEN_BENCHMARKS_H_
