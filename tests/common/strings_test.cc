#include "common/strings.h"

#include <gtest/gtest.h>

namespace groupform::common {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Join, InverseOfSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, "--"), "x");
}

TEST(Trim, StripsAsciiWhitespace) {
  EXPECT_EQ(Trim("  hi\t\n"), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StrFormat, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ParseDouble, AcceptsNumbersRejectsGarbage) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("  -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("12x", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(ParseInt64, AcceptsIntegersRejectsGarbage) {
  long long v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("3.5", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

}  // namespace
}  // namespace groupform::common
