#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "hmcs/util/csv.hpp"
#include "hmcs/util/error.hpp"
#include "hmcs/util/output_file.hpp"
#include "hmcs/util/table.hpp"

namespace {

using namespace hmcs;

TEST(Table, RejectsEmptyHeaderAndMismatchedRows) {
  EXPECT_THROW(Table(std::vector<std::string>{}), ConfigError);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ConfigError);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"C", "Latency"});
  t.add_row({"1", "27.1"});
  t.add_row({"256", "41.3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("|   C | Latency |"), std::string::npos);
  EXPECT_NE(out.find("|   1 |    27.1 |"), std::string::npos);
  EXPECT_NE(out.find("| 256 |    41.3 |"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|-----"), std::string::npos);
}

TEST(Table, NumericRowFormatsWithPrecision) {
  Table t({"x", "y"});
  t.add_numeric_row({1.23456, 2.0}, 2);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
  EXPECT_NE(t.render().find("2.00"), std::string::npos);
}

TEST(Table, CountsRowsAndColumns) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), 0u);
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Csv, SerialisesHeaderAndRows) {
  CsvWriter csv({"clusters", "latency_ms"});
  csv.add_numeric_row({4.0, 1.25});
  EXPECT_EQ(csv.to_string(), "clusters,latency_ms\n4,1.25\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter csv({"name", "note"});
  csv.add_row({"a,b", "say \"hi\"\nbye"});
  EXPECT_EQ(csv.to_string(), "name,note\n\"a,b\",\"say \"\"hi\"\"\nbye\"\n");
}

TEST(Csv, QuotesCarriageReturns) {
  // A bare CR ends a record for RFC 4180 readers (Python's csv among
  // them), so an unquoted one splits the row.
  CsvWriter csv({"technology", "n"});
  csv.add_row({"GE\rFE", "1"});
  EXPECT_EQ(csv.to_string(), "technology,n\n\"GE\rFE\",1\n");
}

TEST(Csv, FlushedPiecesConcatenateToTheWholeSeries) {
  CsvWriter whole({"i", "label"});
  CsvWriter streamed({"i", "label"});
  std::ostringstream out;
  for (int i = 0; i < 50; ++i) {
    whole.cell(std::to_string(i)).cell("a,\"b\"").end_row();
    streamed.cell(std::to_string(i)).cell("a,\"b\"").end_row();
    if (i % 7 == 0) streamed.flush_to(out);
  }
  streamed.cell("half a row");  // an open row stays buffered
  streamed.flush_to(out);
  EXPECT_EQ(out.str(), whole.to_string());
  EXPECT_EQ(streamed.buffered(), std::string("half a row").size());
}

TEST(Csv, RejectsMismatchedRow) {
  CsvWriter csv({"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), ConfigError);
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "hmcs_csv_test.csv";
  CsvWriter csv({"x"});
  csv.add_numeric_row({42.0});
  csv.write_file(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "x\n42\n");
  std::remove(path.c_str());
}

TEST(Csv, WriteFileFailsLoudly) {
  CsvWriter csv({"x"});
  EXPECT_THROW(csv.write_file("/nonexistent-dir/file.csv"), ConfigError);
}

TEST(Csv, CellByCellRowsMatchAddRowAndDropBadRows) {
  CsvWriter built({"name", "value"});
  built.cell("a,b").cell(0.1, 9).end_row();
  built.cell("only one");
  EXPECT_THROW(built.end_row(), ConfigError);
  CsvWriter listed({"name", "value"});
  listed.add_row({"a,b", "0.1"});
  EXPECT_EQ(built.to_string(), listed.to_string());
}

TEST(Table, CellByCellRowsMatchAddRowAndDropBadRows) {
  Table built({"x", "y"});
  built.cell("1").cell(2.0, 2).end_row();
  built.cell("3");
  EXPECT_THROW(built.end_row(), ConfigError);
  EXPECT_EQ(built.num_rows(), 1u);
  Table listed({"x", "y"});
  listed.add_row({"1", "2.00"});
  EXPECT_EQ(built.render(), listed.render());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// open_output_file replaces a regular file with a new one instead of
// truncating it in place: a second name hard-linked to the old file
// keeps the old bytes.
TEST(OutputFile, ReplacesAnExistingFileWithANewOne) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "hmcs_output_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "series.csv").string();
  const std::string other = (dir / "other_name.csv").string();
  CsvWriter first({"x"});
  first.add_numeric_row({1.0});
  first.write_file(path);
  fs::create_hard_link(path, other);

  CsvWriter second({"x"});
  second.add_numeric_row({2.0});
  second.write_file(path);
  EXPECT_EQ(read_file(path), "x\n2\n");
  EXPECT_EQ(read_file(other), "x\n1\n");
  EXPECT_EQ(fs::hard_link_count(path), 1u);
  fs::remove_all(dir);
}

TEST(OutputFile, WritesThroughASymlink) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "hmcs_output_link";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "target.json";
  const fs::path link = dir / "link.json";
  std::ofstream(target) << "old\n";
  fs::create_symlink(target, link);

  std::ofstream out = open_output_file(link.string());
  ASSERT_TRUE(out.good());
  out << "new\n";
  out.close();
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_EQ(read_file(target.string()), "new\n");
  fs::remove_all(dir);
}

}  // namespace
