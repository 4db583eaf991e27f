// Triplet / MovieLens loaders: parsing, re-indexing, clamping, round-trip.
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/loaders.h"

namespace groupform {
namespace {

TEST(ParseTriplets, BasicCsvWithReindexing) {
  data::LoaderOptions options;
  const auto matrix = data::ParseTriplets(
      "10,100,5\n"
      "10,200,3\n"
      "42,100,1\n",
      options);
  ASSERT_TRUE(matrix.ok()) << matrix.status();
  EXPECT_EQ(matrix->num_users(), 2);
  EXPECT_EQ(matrix->num_items(), 2);
  // First-appearance order: user 10 -> 0, user 42 -> 1; item 100 -> 0.
  EXPECT_DOUBLE_EQ(matrix->GetRating(0, 0).value(), 5.0);
  EXPECT_DOUBLE_EQ(matrix->GetRating(0, 1).value(), 3.0);
  EXPECT_DOUBLE_EQ(matrix->GetRating(1, 0).value(), 1.0);
}

TEST(ParseTriplets, HeaderCommentsAndExtraColumns) {
  data::LoaderOptions options;
  options.has_header = true;
  const auto matrix = data::ParseTriplets(
      "user,item,rating,timestamp\n"
      "# a comment line\n"
      "1,1,4,838985046\n"
      "2,1,2,838983421\n",
      options);
  ASSERT_TRUE(matrix.ok()) << matrix.status();
  EXPECT_EQ(matrix->num_ratings(), 2);
}

TEST(ParseTriplets, MalformedRowsFail) {
  data::LoaderOptions options;
  EXPECT_FALSE(data::ParseTriplets("1,2\n", options).ok());
  EXPECT_FALSE(data::ParseTriplets("a,2,3\n", options).ok());
  EXPECT_FALSE(data::ParseTriplets("1,2,x\n", options).ok());
}

TEST(ParseTriplets, ClampsOrRejectsOutOfScale) {
  data::LoaderOptions clamping;
  const auto clamped = data::ParseTriplets("1,1,9\n", clamping);
  ASSERT_TRUE(clamped.ok());
  EXPECT_DOUBLE_EQ(clamped->GetRating(0, 0).value(), 5.0);

  data::LoaderOptions strict;
  strict.clamp_out_of_scale = false;
  EXPECT_FALSE(data::ParseTriplets("1,1,9\n", strict).ok());
}

TEST(Loaders, MovieLensDoubleColonFormat) {
  const std::string path = testing::TempDir() + "/ratings.dat";
  {
    std::ofstream out(path);
    out << "1::122::5::838985046\n"
           "1::185::3.5::838983525\n"
           "2::122::3::868245920\n";
  }
  const auto matrix = data::LoadMovieLens(path);
  ASSERT_TRUE(matrix.ok()) << matrix.status();
  EXPECT_EQ(matrix->num_users(), 2);
  EXPECT_EQ(matrix->num_items(), 2);
  EXPECT_DOUBLE_EQ(matrix->GetRating(0, 1).value(), 3.5);
  std::remove(path.c_str());
}

TEST(Loaders, MissingFileReportsNotFound) {
  data::LoaderOptions options;
  EXPECT_EQ(data::LoadTripletFile("/no/such/file.csv", options)
                .status()
                .code(),
            common::StatusCode::kNotFound);
}

TEST(Loaders, TripletFileLoadsLikeParsedText) {
  const std::string text = "0,0,5\n0,1,2\n1,1,4\n";
  const auto original = data::ParseTriplets(text, data::LoaderOptions());
  ASSERT_TRUE(original.ok());
  const std::string path = testing::TempDir() + "/roundtrip.csv";
  {
    std::ofstream out(path);
    out << text;
  }
  const auto reloaded = data::LoadTripletFile(path, data::LoaderOptions());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_ratings(), original->num_ratings());
  EXPECT_DOUBLE_EQ(reloaded->GetRating(0, 1).value(), 2.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace groupform
