// Entry point of the end-to-end benchmark program (see README.md):
//
//   ctfl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--revision REV]
//   ctfl_perfbench --self-test

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ctfl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--revision REV]\n"
               "       ctfl_perfbench --self-test\n");
  return 2;
}

bool ParseUint(const std::string& text, unsigned long long max,
               unsigned long long* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/run";
  options.revision = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const int failures = perfbench::RunSelfTest();
      std::printf("self-test: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, ~0ULL, &number)) return Usage();
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, 600, &number) || number == 0) return Usage();
      options.seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--revision") {
      options.revision = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  return perfbench::RunWorkload(options);
}
