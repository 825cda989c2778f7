#include "src/util/table.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace dz {
namespace {

TEST(TableTest, AsciiContainsHeaderAndRows) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1.5"});
  t.AddRow({"beta", "2"});
  const std::string s = t.ToAscii();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  const std::string csv = t.ToCsv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // the header and two rows
}

TEST(TableTest, CsvFormat) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

}  // namespace
}  // namespace dz
