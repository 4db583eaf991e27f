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
  EXPECT_EQ(*flags.GetIntInRange("k", 0, 0, 100), 5);
  EXPECT_EQ(*flags.GetIntInRange("groups", 0, 0, 100), 10);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
}

TEST(FlagParser, BareFlagIsBooleanTrue) {
  const auto flags = ParseOk({"--verbose", "--k=2"});
  EXPECT_TRUE(*flags.GetCheckedBool("verbose", false));
  EXPECT_FALSE(*flags.GetCheckedBool("quiet", false));
  EXPECT_TRUE(*flags.GetCheckedBool("quiet", true));
}

TEST(FlagParser, PositionalsAndDoubleDashSeparator) {
  const auto flags = ParseOk({"file1.csv", "--k=3", "--", "--not-a-flag"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1.csv");
  EXPECT_EQ(flags.positional()[1], "--not-a-flag");
}

/// A malformed value is INVALID_ARGUMENT whose message names the flag,
/// so a tool can print it as is — never a silent fallback.
void ExpectRefused(const Status& status, const std::string& name) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
  EXPECT_NE(status.message().find("--" + name), std::string::npos)
      << status.message();
}

TEST(FlagParser, MalformedValuesAreRefused) {
  const auto flags = ParseOk({"--k=abc", "--groups=2x", "--rate=1.5",
                              "--sat=x", "--inf=inf", "--nan=nan",
                              "--dump=yes", "--pipe=", "--on=1", "--off=0",
                              "--no=false"});
  ExpectRefused(flags.GetIntInRange("k", 7, 0, 100).status(), "k");
  ExpectRefused(flags.GetIntInRange("groups", 10, 0, 100).status(),
                "groups");
  EXPECT_DOUBLE_EQ(*flags.GetFiniteDouble("rate", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(*flags.GetFiniteDouble("absent", 2.5), 2.5);
  for (const char* name : {"sat", "inf", "nan"}) {
    ExpectRefused(flags.GetFiniteDouble(name, 0.0).status(), name);
  }
  EXPECT_TRUE(*flags.GetCheckedBool("on", false));
  EXPECT_FALSE(*flags.GetCheckedBool("off", true));
  EXPECT_FALSE(*flags.GetCheckedBool("no", true));
  // "yes" used to read as true and any other word as false.
  for (const char* name : {"dump", "pipe"}) {
    ExpectRefused(flags.GetCheckedBool(name, false).status(), name);
  }
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
  EXPECT_EQ(*flags.GetIntInRange("k", 0, 0, 100), 2);
}

}  // namespace
}  // namespace groupform::common
