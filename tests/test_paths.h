#ifndef CTFL_TESTS_TEST_PATHS_H_
#define CTFL_TESTS_TEST_PATHS_H_

// Temp paths private to the running test. Test binaries run concurrently
// under `ctest -j`, so a fixed name in the shared testing::TempDir() would
// be written by several processes at once (two delta logs appending to one
// file, two servers binding one socket). These paths live in a directory
// named after the test's suite, name and process id instead.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace ctfl {

/// Directory for the running test's temp files: created on first use and
/// removed with its contents when the process exits.
inline std::string TestTempDir() {
  struct Created {
    std::mutex mu;
    std::vector<std::string> dirs;
    ~Created() {
      std::error_code ignored;
      for (const std::string& dir : dirs) {
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Created created;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? "no_test"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += name + "." + std::to_string(getpid());
  std::lock_guard<std::mutex> lock(created.mu);
  if (std::find(created.dirs.begin(), created.dirs.end(), dir) ==
      created.dirs.end()) {
    std::filesystem::create_directories(dir);
    created.dirs.push_back(dir);
  }
  return dir;
}

/// `name` inside TestTempDir().
inline std::string TestTempPath(const std::string& name) {
  return TestTempDir() + "/" + name;
}

}  // namespace ctfl

#endif  // CTFL_TESTS_TEST_PATHS_H_
