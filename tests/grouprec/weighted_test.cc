// Per-user NDCG (§6, "Weights at the user level").
#include <vector>

#include <gtest/gtest.h>

#include "data/paper_examples.h"
#include "grouprec/weighted.h"

namespace groupform {
namespace {

TEST(UserNdcg, PerfectListScoresOneAndWorstListLess) {
  const auto matrix = data::PaperExample1();
  // u2 (index 1): ratings (2, 3, 5); personal top-2 = i3, i2.
  const std::vector<ItemId> ideal = {2, 1};
  EXPECT_NEAR(grouprec::UserNdcg(matrix, 1, ideal, 2), 1.0, 1e-12);
  const std::vector<ItemId> bad = {0, 1};  // ratings 2 and 3
  const double ndcg = grouprec::UserNdcg(matrix, 1, bad, 2);
  EXPECT_LT(ndcg, 1.0);
  EXPECT_GT(ndcg, 0.0);
}

TEST(UserNdcg, SwappedPairScoresBelowIdealButAboveReversed) {
  const auto matrix = data::PaperExample1();
  // u1 (index 0): ratings (1, 4, 3); ideal top-3 = i2, i3, i1.
  const double ideal = grouprec::UserNdcg(matrix, 0, {{1, 2, 0}}, 3);
  const double swapped = grouprec::UserNdcg(matrix, 0, {{2, 1, 0}}, 3);
  const double reversed = grouprec::UserNdcg(matrix, 0, {{0, 2, 1}}, 3);
  EXPECT_NEAR(ideal, 1.0, 1e-12);
  EXPECT_LT(swapped, ideal);
  EXPECT_LT(reversed, swapped);
}

}  // namespace
}  // namespace groupform
