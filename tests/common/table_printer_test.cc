#include "common/table_printer.h"

#include <gtest/gtest.h>

namespace groupform::common {
namespace {

TEST(TablePrinter, AlignsColumnsRightAndDrawsRule) {
  TablePrinter table({"users", "objective"});
  table.AddRow({"200", "38.5"});
  table.AddRow({"1000", "31"});
  const std::string expected =
      "| users | objective |\n"
      "|-------|-----------|\n"
      "|   200 |      38.5 |\n"
      "|  1000 |        31 |\n";
  EXPECT_EQ(table.ToString(), expected);
}

TEST(TablePrinter, WideCellsStretchTheColumn) {
  TablePrinter table({"x"});
  table.AddRow({"longer-than-header"});
  const auto text = table.ToString();
  EXPECT_NE(text.find("| longer-than-header |"), std::string::npos);
  EXPECT_NE(text.find("|                  x |"), std::string::npos);
}

}  // namespace
}  // namespace groupform::common
