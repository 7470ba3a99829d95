#include "ctfl/util/file_io.h"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_paths.h"

namespace ctfl {
namespace {

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FileIoTest, ReadsEveryByteIncludingNul) {
  std::string bytes("\x00\x01\xff\n\r\x00tail", 10);
  bytes += std::string(200000, 'x');  // past any stream buffer
  const std::string path = TestTempPath("bytes.bin");
  WriteBytes(path, bytes);
  const Result<std::string> read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, bytes);
}

TEST(FileIoTest, EmptyFileIsEmptyString) {
  const std::string path = TestTempPath("empty.bin");
  WriteBytes(path, "");
  const Result<std::string> read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->empty());
}

TEST(FileIoTest, MissingFileIsIoError) {
  const Result<std::string> read = ReadFileBytes(TestTempPath("missing"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ctfl
