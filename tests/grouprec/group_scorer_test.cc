// GroupScorer: the LM / AV semantics (Definitions 1 and 2), group top-k
// computation, candidate policies, and missing-rating handling.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/paper_examples.h"
#include "data/rating_matrix.h"
#include "data/synthetic.h"
#include "grouprec/group_scorer.h"

namespace groupform {
namespace {

using data::RatingMatrix;
using data::RatingScale;
using grouprec::Aggregation;
using grouprec::GroupScorer;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

GroupScorer MakeScorer(const RatingMatrix& matrix, Semantics semantics,
                       MissingRatingPolicy missing =
                           MissingRatingPolicy::kScaleMin) {
  GroupScorer::Options options;
  options.semantics = semantics;
  options.missing = missing;
  return GroupScorer(matrix, options);
}

TEST(GroupScorer, LeastMiseryItemScoreIsTheMinimum) {
  const auto matrix = data::PaperExample1();
  const auto scorer = MakeScorer(matrix, Semantics::kLeastMisery);
  const std::vector<UserId> group = {1, 5};  // u2, u6
  // i3: min(5, 5) = 5; i1: min(2, 1) = 1; i2: min(3, 2) = 2.
  EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 2), 5.0);
  EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 0), 1.0);
  EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 1), 2.0);
}

TEST(GroupScorer, AggregateVotingItemScoreIsTheSum) {
  const auto matrix = data::PaperExample2();
  const auto scorer = MakeScorer(matrix, Semantics::kAggregateVoting);
  const std::vector<UserId> group = {0, 1, 4, 5};  // u1, u2, u5, u6
  // i3: 4+3+3+1 = 11; i2: 1+4+2+2 = 9; i1: 3+1+1+3 = 8.
  EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 2), 11.0);
  EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 1), 9.0);
  EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 0), 8.0);
}

TEST(GroupScorer, TopKOrdersByScoreThenItemId) {
  const auto matrix = data::PaperExample2();
  const auto scorer = MakeScorer(matrix, Semantics::kAggregateVoting);
  const std::vector<UserId> group = {0, 1, 4, 5};
  const auto list = scorer.TopKAllItems(group, 2);
  ASSERT_EQ(list.size(), 2);
  EXPECT_EQ(list.items[0].item, 2);  // i3, AV 11
  EXPECT_DOUBLE_EQ(list.items[0].score, 11.0);
  EXPECT_EQ(list.items[1].item, 1);  // i2, AV 9
  EXPECT_DOUBLE_EQ(list.items[1].score, 9.0);
}

TEST(GroupScorer, TopKMatchesItemScoreForEveryCandidate) {
  const auto matrix = data::PaperExample1();
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    const auto scorer = MakeScorer(matrix, semantics);
    const std::vector<UserId> group = {0, 2, 4};
    const auto list = scorer.TopKAllItems(group, 3);
    ASSERT_EQ(list.size(), 3);
    for (const auto& si : list.items) {
      EXPECT_DOUBLE_EQ(si.score, scorer.ItemScore(group, si.item));
    }
  }
}

TEST(GroupScorer, SingletonGroupScoresAreTheUsersOwnRatings) {
  const auto matrix = data::PaperExample1();
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    const auto scorer = MakeScorer(matrix, semantics);
    const std::vector<UserId> group = {1};  // u2: (2, 3, 5)
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 0), 2.0);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 1), 3.0);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 2), 5.0);
  }
}

RatingMatrix SparseMatrix() {
  // 3 users x 4 items; user 2 never rated item 3.
  data::RatingMatrixBuilder builder(3, 4, RatingScale{1.0, 5.0});
  EXPECT_TRUE(builder.AddRating(0, 0, 5).ok());
  EXPECT_TRUE(builder.AddRating(0, 1, 4).ok());
  EXPECT_TRUE(builder.AddRating(0, 3, 2).ok());
  EXPECT_TRUE(builder.AddRating(1, 0, 3).ok());
  EXPECT_TRUE(builder.AddRating(1, 1, 5).ok());
  EXPECT_TRUE(builder.AddRating(1, 3, 4).ok());
  EXPECT_TRUE(builder.AddRating(2, 0, 4).ok());
  EXPECT_TRUE(builder.AddRating(2, 1, 2).ok());
  return std::move(builder).Build();
}

TEST(GroupScorer, MissingRatingPolicies) {
  const auto matrix = SparseMatrix();
  const std::vector<UserId> group = {0, 1, 2};

  // LM, kScaleMin: item 3 has a non-rater, so it floors at r_min = 1.
  {
    const auto scorer = MakeScorer(matrix, Semantics::kLeastMisery,
                                   MissingRatingPolicy::kScaleMin);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 3), 1.0);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 2), 1.0);  // nobody rated i2
  }
  // LM, kZero: missing contributes 0.
  {
    const auto scorer = MakeScorer(matrix, Semantics::kLeastMisery,
                                   MissingRatingPolicy::kZero);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 3), 0.0);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 2), 0.0);
  }
  // LM, kSkipUser: min over raters only: min(2, 4) = 2.
  {
    const auto scorer = MakeScorer(matrix, Semantics::kLeastMisery,
                                   MissingRatingPolicy::kSkipUser);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 3), 2.0);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 2), 1.0);  // no raters: r_min
  }
  // AV, kScaleMin: sum + r_min for the non-rater: 2 + 4 + 1 = 7.
  {
    const auto scorer = MakeScorer(matrix, Semantics::kAggregateVoting,
                                   MissingRatingPolicy::kScaleMin);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 3), 7.0);
  }
  // AV, kSkipUser: raters only: 2 + 4 = 6.
  {
    const auto scorer = MakeScorer(matrix, Semantics::kAggregateVoting,
                                   MissingRatingPolicy::kSkipUser);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 3), 6.0);
  }
  // AV, kZero: raters only sum: 6.
  {
    const auto scorer = MakeScorer(matrix, Semantics::kAggregateVoting,
                                   MissingRatingPolicy::kZero);
    EXPECT_DOUBLE_EQ(scorer.ItemScore(group, 3), 6.0);
  }
}

TEST(GroupScorer, TopKAgreesWithItemScoreUnderEveryPolicy) {
  const auto matrix = SparseMatrix();
  const std::vector<UserId> group = {0, 1, 2};
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    for (const auto policy :
         {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero,
          MissingRatingPolicy::kSkipUser}) {
      const auto scorer = MakeScorer(matrix, semantics, policy);
      const auto list = scorer.TopKAllItems(group, 4);
      for (const auto& si : list.items) {
        EXPECT_DOUBLE_EQ(si.score, scorer.ItemScore(group, si.item))
            << "semantics=" << static_cast<int>(semantics)
            << " policy=" << static_cast<int>(policy)
            << " item=" << si.item;
      }
    }
  }
}

TEST(GroupScorer, UnionCandidatesCoverPersonalTopItems) {
  const auto matrix = SparseMatrix();
  const auto scorer = MakeScorer(matrix, Semantics::kLeastMisery);
  const std::vector<UserId> group = {0, 1};
  // Depth 1: candidates = {i0 (u0's best), i1 (u1's best)}.
  const auto list = scorer.TopKUnionCandidates(group, 2, 1);
  ASSERT_EQ(list.size(), 2);
  // LM scores: i0 -> min(5,3)=3, i1 -> min(4,5)=4; order: i1, i0.
  EXPECT_EQ(list.items[0].item, 1);
  EXPECT_DOUBLE_EQ(list.items[0].score, 4.0);
  EXPECT_EQ(list.items[1].item, 0);
  EXPECT_DOUBLE_EQ(list.items[1].score, 3.0);
}

TEST(GroupScorer, AggregateSatisfactionMaxMinSum) {
  grouprec::GroupTopK list;
  list.items = {{0, 5.0}, {1, 3.0}, {2, 2.0}};
  EXPECT_DOUBLE_EQ(
      GroupScorer::AggregateSatisfaction(list, Aggregation::kMax), 5.0);
  EXPECT_DOUBLE_EQ(
      GroupScorer::AggregateSatisfaction(list, Aggregation::kMin), 2.0);
  EXPECT_DOUBLE_EQ(
      GroupScorer::AggregateSatisfaction(list, Aggregation::kSum), 10.0);
  EXPECT_DOUBLE_EQ(GroupScorer::AggregateSatisfaction(grouprec::GroupTopK{},
                                                      Aggregation::kSum),
                   0.0);
}

TEST(GroupScorer, EmptyCandidatesGiveEmptyList) {
  const auto matrix = SparseMatrix();
  const auto scorer = MakeScorer(matrix, Semantics::kLeastMisery);
  const std::vector<UserId> group = {0, 1};
  const std::vector<ItemId> no_candidates;
  EXPECT_TRUE(scorer.TopK(group, 3, no_candidates).empty());
}

}  // namespace
}  // namespace groupform
