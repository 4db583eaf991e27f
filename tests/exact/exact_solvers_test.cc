// SubsetDpSolver vs BruteForceSolver cross-validation and exact-solver
// behaviour on the paper instances.
#include <tuple>

#include <gtest/gtest.h>

#include "core/formation.h"
#include "data/paper_examples.h"
#include "data/synthetic.h"
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

class DpVsBruteForceTest
    : public testing::TestWithParam<
          std::tuple<Semantics, Aggregation, int, int, std::uint64_t>> {};

TEST_P(DpVsBruteForceTest, AgreeOnRandomInstances) {
  const auto [semantics, aggregation, k, ell, seed] = GetParam();
  const auto matrix = data::GenerateUniformDense(
      7, 4, data::RatingScale{1.0, 5.0}, seed);
  const auto problem = Problem(matrix, semantics, aggregation, k, ell);
  const auto dp = exact::SubsetDpSolver(problem).Solve(0);
  const auto bf = exact::BruteForceSolver(problem).Solve(0);
  ASSERT_TRUE(dp.ok()) << dp.status();
  ASSERT_TRUE(bf.ok()) << bf.status();
  EXPECT_NEAR(dp->objective, bf->objective, 1e-9) << problem.ToString();
  EXPECT_TRUE(core::ValidatePartition(problem, *dp).ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *bf).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpVsBruteForceTest,
    testing::Combine(
        testing::Values(Semantics::kLeastMisery,
                        Semantics::kAggregateVoting),
        testing::Values(Aggregation::kMax, Aggregation::kMin,
                        Aggregation::kSum),
        testing::Values(1, 2),            // k
        testing::Values(2, 3),            // ell
        testing::Values(101u, 202u)));    // seed

TEST(SubsetDp, RefusesOversizedInstances) {
  const auto matrix = data::GenerateUniformDense(
      20, 4, data::RatingScale{1.0, 5.0}, 1);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 2, 3);
  const auto result = exact::SubsetDpSolver(problem).Solve(0);
  EXPECT_EQ(result.status().code(),
            common::StatusCode::kResourceExhausted);
}

TEST(SubsetDp, EllOneIsTheWholePopulationScore) {
  const auto matrix = data::PaperExample1();
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 1, 1);
  const auto result = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1);
  // One group of all six users; best LM top-1 score is 1 (all items have a
  // 1 somewhere in Table 1).
  EXPECT_DOUBLE_EQ(result->objective, 1.0);
}

TEST(SubsetDp, MoreGroupsNeverHurt) {
  const auto matrix = data::GenerateUniformDense(
      8, 5, data::RatingScale{1.0, 5.0}, 5);
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    double previous = -1.0;
    for (int ell = 1; ell <= 4; ++ell) {
      const auto problem =
          Problem(matrix, semantics, Aggregation::kMin, 2, ell);
      const auto result = exact::SubsetDpSolver(problem).Solve(0);
      ASSERT_TRUE(result.ok());
      EXPECT_GE(result->objective, previous - 1e-9);
      previous = result->objective;
    }
  }
}

TEST(SubsetDp, SingletonPartitionWhenEllEqualsUsers) {
  const auto matrix = data::PaperExample1();
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMax, 1, 6);
  const auto result = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(result.ok());
  // With ell = n, the optimum gives everyone their own favourite: the sum
  // of per-user maxima: 4+5+5+5+3+5 = 27.
  EXPECT_DOUBLE_EQ(result->objective, 27.0);
}

}  // namespace
}  // namespace groupform
