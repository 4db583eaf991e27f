// Bucket splitting under LM (DESIGN.md §4.1b): the behaviour that makes
// the paper's Theorem 2/3 guarantees actually hold when intermediate
// buckets are larger than the group budget requires.
#include <vector>

#include <gtest/gtest.h>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/rating_matrix.h"
#include "exact/subset_dp.h"
#include "grouprec/semantics.h"

namespace groupform {
namespace {

using core::FormationProblem;
using grouprec::Aggregation;
using grouprec::Semantics;

FormationProblem Problem(const data::RatingMatrix& matrix,
                         Semantics semantics, Aggregation aggregation, int k,
                         int ell) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = semantics;
  problem.aggregation = aggregation;
  problem.k = k;
  problem.max_groups = ell;
  return problem;
}

/// `count` users with identical ratings (5, 1, 1).
data::RatingMatrix IdenticalUsers(int count) {
  std::vector<std::vector<Rating>> rows(
      static_cast<std::size_t>(count), std::vector<Rating>{5.0, 1.0, 1.0});
  auto matrix = data::RatingMatrix::FromDense(rows);
  EXPECT_TRUE(matrix.ok());
  return std::move(matrix).value();
}

TEST(BucketSplitting, OneGiantLmBucketFillsEveryGroupSlot) {
  // 10 identical users, ell = 5: whole-bucket greedy would form one group
  // scoring 5 and stop; with splitting the greedy matches the optimum
  // 5 * 5 = 25 (four carved groups + the residual, all scoring 5).
  const auto matrix = IdenticalUsers(10);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMax, 1, 5);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  EXPECT_EQ(grd->num_groups(), 5);
  EXPECT_DOUBLE_EQ(grd->objective, 25.0);
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok());
  EXPECT_DOUBLE_EQ(grd->objective, opt->objective);
  EXPECT_TRUE(core::ValidatePartition(problem, *grd).ok());
}

TEST(BucketSplitting, SplitPartsAllCarryTheBucketScore) {
  const auto matrix = IdenticalUsers(7);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 2, 4);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  // Key (i0, i1 : 1): every part of the split bucket scores the shared
  // bottom rating 1.
  for (const auto& g : grd->groups) {
    EXPECT_DOUBLE_EQ(g.satisfaction, 1.0);
  }
  EXPECT_EQ(grd->num_groups(), 4);
  EXPECT_DOUBLE_EQ(grd->objective, 4.0);
}

TEST(BucketSplitting, SecondSlotOfStrongBucketBeatsWeakBucket) {
  // Bucket A: 3 users with top rating 5. Bucket B: 1 user with top rating
  // 2. ell = 3 gives two slots before the residual: score-greedy spends
  // both on A (5 + 5) rather than A + B (5 + 2).
  const auto matrix = data::RatingMatrix::FromDense({
      {5.0, 1.0},  // a0
      {5.0, 1.0},  // a1
      {5.0, 1.0},  // a2
      {1.0, 2.0},  // b
  });
  ASSERT_TRUE(matrix.ok());
  const auto problem =
      Problem(*matrix, Semantics::kLeastMisery, Aggregation::kMax, 1, 3);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  // Slots: {a0} and {a1, a2} (the bucket's remaining member rides in its
  // last slot at unchanged score); residual {b} scores 2. Objective
  // 5 + 5 + 2 = 12, which here matches the optimum.
  EXPECT_DOUBLE_EQ(grd->objective, 12.0);
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok());
  EXPECT_DOUBLE_EQ(opt->objective, 12.0);
  // A + B whole-bucket selection would only reach 5 + 2 + residual; the
  // split stays within the Theorem 2 bound trivially.
  EXPECT_LE(opt->objective - grd->objective, 5.0);
}

TEST(BucketSplitting, AvBucketsAreNeverSplit) {
  // Under AV, splitting a bucket redistributes its summed score, so the
  // greedy keeps buckets whole: 10 identical users with ell = 5 stay one
  // group whose AV score equals the sum over all members.
  const auto matrix = IdenticalUsers(10);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kMax, 1, 5);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  EXPECT_EQ(grd->num_groups(), 1);
  EXPECT_DOUBLE_EQ(grd->objective, 50.0);  // 10 members x rating 5
}

TEST(BucketSplitting, TiesAreAllocatedBreadthFirst) {
  // Two equal-score buckets of two users each, ell = 3: both buckets get
  // one slot each (the paper's whole-bucket trace), rather than one
  // bucket being split into singletons.
  const auto matrix = data::RatingMatrix::FromDense({
      {5.0, 1.0, 1.0},
      {5.0, 1.0, 1.0},
      {1.0, 5.0, 1.0},
      {1.0, 5.0, 1.0},
      {1.0, 1.0, 2.0},
  });
  ASSERT_TRUE(matrix.ok());
  const auto problem =
      Problem(*matrix, Semantics::kLeastMisery, Aggregation::kMax, 1, 3);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  ASSERT_EQ(grd->num_groups(), 3);
  EXPECT_EQ(grd->groups[0].members, (std::vector<UserId>{0, 1}));
  EXPECT_EQ(grd->groups[1].members, (std::vector<UserId>{2, 3}));
  EXPECT_EQ(grd->groups[2].members, (std::vector<UserId>{4}));
  EXPECT_DOUBLE_EQ(grd->objective, 12.0);
}

}  // namespace
}  // namespace groupform
