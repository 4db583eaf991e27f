// Per-user preference lists and the library-wide tie rule.
#include <gtest/gtest.h>

#include "data/paper_examples.h"
#include "data/rating_matrix.h"
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

}  // namespace
}  // namespace groupform
