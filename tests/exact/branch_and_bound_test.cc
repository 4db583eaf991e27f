// BranchAndBoundSolver cross-validation against the subset DP and
// behavioural checks (incumbent fallback, caps, both semantics).
#include <tuple>

#include <gtest/gtest.h>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/paper_examples.h"
#include "data/synthetic.h"
#include "exact/branch_and_bound.h"
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

class BnbVsDpTest
    : public testing::TestWithParam<
          std::tuple<Semantics, Aggregation, int, std::uint64_t>> {};

TEST_P(BnbVsDpTest, MatchesTheDpOptimum) {
  const auto [semantics, aggregation, ell, seed] = GetParam();
  const auto matrix = data::GenerateUniformDense(
      9, 5, data::RatingScale{1.0, 5.0}, seed);
  const auto problem = Problem(matrix, semantics, aggregation, 2, ell);
  const auto bnb = exact::BranchAndBoundSolver(problem).Solve(0);
  const auto dp = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(bnb.ok()) << bnb.status();
  ASSERT_TRUE(dp.ok()) << dp.status();
  EXPECT_NEAR(bnb->objective, dp->objective, 1e-9) << problem.ToString();
  EXPECT_EQ(bnb->algorithm, "BNB");  // proved optimal, no budget cutoff
  EXPECT_TRUE(core::ValidatePartition(problem, *bnb).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BnbVsDpTest,
    testing::Combine(testing::Values(Semantics::kLeastMisery,
                                     Semantics::kAggregateVoting),
                     testing::Values(Aggregation::kMax, Aggregation::kMin,
                                     Aggregation::kSum),
                     testing::Values(2, 3),
                     testing::Values(301u, 302u)));

TEST(BranchAndBound, PaperExamplesOptima) {
  const auto matrix1 = data::PaperExample1();
  const auto p1 = Problem(matrix1, Semantics::kLeastMisery,
                          Aggregation::kMin, 1, 3);
  const auto r1 = exact::BranchAndBoundSolver(p1).Solve(0);
  ASSERT_TRUE(r1.ok());
  EXPECT_DOUBLE_EQ(r1->objective, 12.0);

  const auto matrix4 = data::PaperExample4();
  const auto p4 = Problem(matrix4, Semantics::kAggregateVoting,
                          Aggregation::kMin, 2, 2);
  const auto r4 = exact::BranchAndBoundSolver(p4).Solve(0);
  ASSERT_TRUE(r4.ok());
  EXPECT_DOUBLE_EQ(r4->objective, 16.0);
}

TEST(BranchAndBound, RefusesOversizedInstances) {
  const auto matrix = data::GenerateUniformDense(
      30, 4, data::RatingScale{1.0, 5.0}, 5);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 2, 3);
  EXPECT_EQ(exact::BranchAndBoundSolver(problem).Solve(0).status().code(),
            common::StatusCode::kResourceExhausted);
}

TEST(BranchAndBound, TinyNodeBudgetStillReturnsAtLeastGreedy) {
  const auto matrix = data::GenerateUniformDense(
      12, 6, data::RatingScale{1.0, 5.0}, 7);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 2, 4);
  exact::BranchAndBoundSolver::Options options;
  options.max_nodes = 10;  // almost no search
  const auto bnb = exact::BranchAndBoundSolver(problem, options).Solve(0);
  ASSERT_TRUE(bnb.ok());
  EXPECT_EQ(bnb->algorithm, "BNB*");  // budget exhausted
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(bnb->objective, greedy->objective - 1e-9);
  EXPECT_TRUE(core::ValidatePartition(problem, *bnb).ok());
}

TEST(BranchAndBound, HandlesLargerInstancesThanTheDp) {
  // 18 users exceeds the DP's default 16-user cap; B&B still proves the
  // optimum and dominates greedy.
  const auto matrix = data::GenerateUniformDense(
      18, 4, data::RatingScale{1.0, 5.0}, 11);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 2, 3);
  const auto bnb = exact::BranchAndBoundSolver(problem).Solve(0);
  ASSERT_TRUE(bnb.ok()) << bnb.status();
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(bnb->objective, greedy->objective - 1e-9);
  EXPECT_TRUE(core::ValidatePartition(problem, *bnb).ok());
}

}  // namespace
}  // namespace groupform
