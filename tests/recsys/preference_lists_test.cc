// Per-user preference lists and the library-wide tie rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/compact_matrix.h"
#include "data/paper_examples.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"
#include "recsys/preference_lists.h"

namespace groupform {
namespace {

TEST(TopKList, SortsByRatingThenItemId) {
  const auto matrix = data::PaperExample1();
  // u5 (index 4): ratings (3, 1, 1). Top-3: i1(3), then the tie between
  // i2 and i3 breaks by ascending item id.
  const auto list = recsys::TopKList(matrix, 4, 3);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].item, 0);
  EXPECT_DOUBLE_EQ(list[0].rating, 3.0);
  EXPECT_EQ(list[1].item, 1);
  EXPECT_EQ(list[2].item, 2);
}

TEST(TopKList, TruncatesAtKAndAtProfileSize) {
  const auto matrix = data::PaperExample1();
  EXPECT_EQ(recsys::TopKList(matrix, 0, 2).size(), 2u);
  EXPECT_EQ(recsys::TopKList(matrix, 0, 99).size(), 3u);
}

TEST(TopKList, PaperExampleSequences) {
  const auto matrix = data::PaperExample1();
  // Paper §4.1: L_{u2} = <i3:5, i2:3, i1:2>.
  const auto list = recsys::FullPreferenceList(matrix, 1);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].item, 2);
  EXPECT_DOUBLE_EQ(list[0].rating, 5.0);
  EXPECT_EQ(list[1].item, 1);
  EXPECT_DOUBLE_EQ(list[1].rating, 3.0);
  EXPECT_EQ(list[2].item, 0);
  EXPECT_DOUBLE_EQ(list[2].rating, 2.0);
}

/// Rows of 0..num_items ratings (every fifth row empty), half on the
/// integer grid and half continuous.
data::RatingMatrix RandomMatrix(std::int32_t num_users,
                                std::int32_t num_items, std::uint64_t seed) {
  common::Rng rng(seed);
  data::RatingMatrixBuilder builder(num_users, num_items,
                                    data::RatingScale{1.0, 5.0});
  for (UserId u = 0; u < num_users; ++u) {
    if (u % 5 == 0) continue;
    const auto picks = rng.SampleWithoutReplacement(
        num_items, rng.UniformInt(1, num_items));
    for (const std::int64_t item : picks) {
      const double rating = rng.Bernoulli(0.5)
                                ? static_cast<double>(rng.UniformInt(1, 5))
                                : 1.0 + 4.0 * rng.NextDouble();
      EXPECT_TRUE(
          builder.AddRating(u, static_cast<ItemId>(item), rating).ok());
    }
  }
  return std::move(builder).Build();
}

void ExpectTopKIsPrefixOfFullList(const data::RatingStore& store) {
  for (UserId u = 0; u < store.num_users(); ++u) {
    const auto full = recsys::FullPreferenceList(store, u);
    const int d = store.NumRatingsOf(u);
    for (const int k : {1, 2, 3, std::max(d, 1), d + 1, d + 7}) {
      SCOPED_TRACE("user " + std::to_string(u) + " k " + std::to_string(k));
      const auto top = recsys::TopKList(store, u, k);
      const auto keep = std::min<std::size_t>(static_cast<std::size_t>(k),
                                              full.size());
      EXPECT_EQ(top, std::vector<data::RatingEntry>(
                         full.begin(),
                         full.begin() + static_cast<std::ptrdiff_t>(keep)));
    }
  }
}

TEST(TopKList, EqualsThePrefixOfTheFullListOnBothBackends) {
  // Half the ratings are integers, so rows hold many rating ties and the
  // tie rule decides; the 8-bit compact backend rounds the continuous half
  // onto its grid and visits rows through its own cell loop.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const data::RatingMatrix dense = RandomMatrix(40, 24, seed);
    ExpectTopKIsPrefixOfFullList(dense);
    const auto compact = data::CompactRatingMatrix::FromMatrix(dense, 8);
    ExpectTopKIsPrefixOfFullList(compact);
  }
}

}  // namespace
}  // namespace groupform
