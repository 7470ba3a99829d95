#ifndef CTFL_PERFBENCH_WORKLOADS_H_
#define CTFL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Target length of the measured phase on the reference host; sets the
  /// fixed amount of work a run does (see README.md).
  int seconds = 10;
  /// false: end-to-end metrics; true: the traced run and per-layer metrics.
  bool trace = false;
  /// Directory (relative or absolute) for the run's bundle, delta log,
  /// socket and trace file.
  std::string work_dir;
  /// Source revision of the measured code, recorded in the run context.
  std::string revision;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload: prints the run context, the metrics as text, and
/// the result JSON as the last stdout line. Returns the exit code (0 when
/// every correctness gate held).
int RunWorkload(const RunOptions& options);

/// Self-tests of the helpers and the correctness comparators; returns the
/// number of failed expectations.
int RunSelfTest();

}  // namespace perfbench

#endif  // CTFL_PERFBENCH_WORKLOADS_H_
