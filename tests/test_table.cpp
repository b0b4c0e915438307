#include "util/table.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "temp_dir.hpp"

namespace misuse {
namespace {

TEST(Table, PrintAlignsColumns) {
  Table t({"cluster", "accuracy"});
  t.add_row({"user-unlock", "0.81"});
  t.add_row({"x", "0.5"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("| cluster     | accuracy |"), std::string::npos);
  EXPECT_NE(s.find("| user-unlock | 0.81     |"), std::string::npos);
}

TEST(Table, RowAndColCounts) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row(0)[2], "3");
}

TEST(Table, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "note"});
  t.add_row({"x,y", "say \"hi\"\nok"});
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(), "name,note\n\"x,y\",\"say \"\"hi\"\"\nok\"\n");
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(1.0, 0), "1");
  EXPECT_EQ(Table::num(0.5), "0.5000");
}

TEST(Table, WriteCsvFileCreatesDirectories) {
  Table t({"x"});
  t.add_row({"1"});
  const std::string path = misuse::testing_support::test_temp_path("misuse_table_test/sub/out.csv");
  t.write_csv_file(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
}

}  // namespace
}  // namespace misuse
