#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>

namespace groupform::common {
namespace {

FlagParser ParseOk(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  return parser;
}

TEST(FlagParser, EqualsAndSpaceSyntax) {
  const auto flags = ParseOk({"--k=5", "--groups", "10", "--name=abc"});
  EXPECT_EQ(flags.GetInt("k", 0), 5);
  EXPECT_EQ(flags.GetInt("groups", 0), 10);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
}

TEST(FlagParser, BareFlagIsBooleanTrue) {
  const auto flags = ParseOk({"--verbose", "--k=2"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("quiet", false));
  EXPECT_TRUE(flags.GetBool("quiet", true));
}

TEST(FlagParser, PositionalsAndDoubleDashSeparator) {
  const auto flags = ParseOk({"file1.csv", "--k=3", "--", "--not-a-flag"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1.csv");
  EXPECT_EQ(flags.positional()[1], "--not-a-flag");
}

TEST(FlagParser, TypedGettersValidate) {
  const auto flags = ParseOk({"--k=abc", "--rate=1.5"});
  EXPECT_FALSE(flags.GetIntOr("k").ok());
  EXPECT_EQ(flags.GetInt("k", 7), 7);  // fallback on malformed
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 1.5);
  EXPECT_EQ(flags.GetIntOr("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(FlagParser, IntInRangeChecksPresentValues) {
  const auto flags = ParseOk({"--ok=7", "--lo=-1", "--hi=17", "--bad=1e3",
                              "--edge=16"});
  // Absent: the fallback, even one outside the range.
  EXPECT_EQ(*flags.GetIntInRange("absent", -5, 0, 16), -5);
  EXPECT_EQ(*flags.GetIntInRange("ok", 0, 0, 16), 7);
  EXPECT_EQ(*flags.GetIntInRange("edge", 0, 0, 16), 16);
  for (const char* name : {"lo", "hi", "bad"}) {
    const auto value = flags.GetIntInRange(name, 1, 0, 16);
    ASSERT_FALSE(value.ok()) << name;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    // The message names the flag, so a daemon can print it as is.
    EXPECT_NE(value.status().message().find(std::string("--") + name),
              std::string::npos)
        << value.status().message();
  }
}

TEST(FlagParser, MalformedFlagFails) {
  const char* argv[] = {"prog", "--=x"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(2, argv).ok());
}

TEST(FlagParser, LastValueWins) {
  const auto flags = ParseOk({"--k=1", "--k=2"});
  EXPECT_EQ(flags.GetInt("k", 0), 2);
}

}  // namespace
}  // namespace groupform::common
