#include "ctfl/util/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "test_paths.h"

namespace ctfl {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return TestTempPath(name);
  }
};

TEST_F(CsvTest, RoundTrip) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "x"}, {"2", "y"}};
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(path, table).ok());

  const Result<CsvTable> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, table.header);
  EXPECT_EQ(loaded->rows, table.rows);
  std::remove(path.c_str());
}

TEST_F(CsvTest, TrimsFieldsAndSkipsBlankLines) {
  const std::string path = TempPath("messy.csv");
  {
    std::ofstream out(path);
    out << "a , b\n\n 1, x \n\n2 ,y\n";
  }
  const Result<CsvTable> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(loaded->rows.size(), 2u);
  EXPECT_EQ(loaded->rows[0], (std::vector<std::string>{"1", "x"}));
  std::remove(path.c_str());
}

TEST_F(CsvTest, RejectsRaggedRows) {
  const std::string path = TempPath("ragged.csv");
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n1,2,3\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST_F(CsvTest, MissingFileIsIoError) {
  const Result<CsvTable> loaded = ReadCsv(TempPath("does-not-exist.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, NoHeaderMode) {
  const std::string path = TempPath("nohdr.csv");
  {
    std::ofstream out(path);
    out << "1,2\n3,4\n";
  }
  const Result<CsvTable> loaded = ReadCsv(path, /*has_header=*/false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->header.empty());
  EXPECT_EQ(loaded->rows.size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctfl
