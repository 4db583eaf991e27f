// The paper's Theorems 2 and 3 as executable properties: on randomized
// small instances, the greedy LM algorithms stay within an additive r_max
// (Min aggregation) or k * r_max (Sum aggregation) of the subset-DP
// optimum. Also checks universal sanity properties of every solver
// (greedy <= optimum, valid partitions, no overstated objectives).
#include <tuple>

#include <gtest/gtest.h>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "exact/subset_dp.h"
#include "grouprec/semantics.h"

namespace groupform {
namespace {

using core::FormationProblem;
using grouprec::Aggregation;
using grouprec::Semantics;

struct Case {
  int num_users;
  int num_items;
  int k;
  int ell;
  std::uint64_t seed;
};

class ErrorBoundTest
    : public testing::TestWithParam<std::tuple<Case, Aggregation>> {};

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

TEST_P(ErrorBoundTest, GreedyLmIsWithinTheoremBoundOfOptimal) {
  const auto [c, aggregation] = GetParam();
  const data::RatingScale scale{1.0, 5.0};
  const auto matrix =
      data::GenerateUniformDense(c.num_users, c.num_items, scale, c.seed);
  const auto problem = Problem(matrix, Semantics::kLeastMisery, aggregation,
                               c.k, c.ell);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok()) << grd.status();
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok()) << opt.status();

  // Greedy can never beat the optimum.
  EXPECT_LE(grd->objective, opt->objective + 1e-9) << problem.ToString();

  // Theorem 2 / Theorem 3 absolute error bound.
  const double bound = aggregation == Aggregation::kSum
                           ? static_cast<double>(c.k) * scale.max
                           : scale.max;
  EXPECT_LE(opt->objective - grd->objective, bound + 1e-9)
      << problem.ToString();

  // Both report partitions that validate and objectives that recompute.
  EXPECT_TRUE(core::ValidatePartition(problem, *grd).ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *opt).ok());
  EXPECT_NEAR(core::RecomputeObjective(problem, *grd), grd->objective, 1e-9);
  EXPECT_NEAR(core::RecomputeObjective(problem, *opt), opt->objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ErrorBoundTest,
    testing::Combine(
        testing::Values(Case{6, 4, 1, 2, 1}, Case{6, 4, 2, 2, 2},
                        Case{7, 5, 2, 3, 3}, Case{8, 5, 3, 3, 4},
                        Case{8, 6, 2, 4, 5}, Case{9, 4, 2, 3, 6},
                        Case{9, 6, 3, 2, 7}, Case{10, 5, 2, 3, 8},
                        Case{10, 6, 1, 4, 9}, Case{11, 5, 2, 5, 10}),
        testing::Values(Aggregation::kMin, Aggregation::kSum,
                        Aggregation::kMax)));

// AV has no guarantee, but greedy must still never exceed the optimum and
// must produce valid partitions.
class AvSanityTest
    : public testing::TestWithParam<std::tuple<Case, Aggregation>> {};

TEST_P(AvSanityTest, GreedyAvNeverExceedsOptimal) {
  const auto [c, aggregation] = GetParam();
  const auto matrix = data::GenerateUniformDense(
      c.num_users, c.num_items, data::RatingScale{1.0, 5.0}, c.seed);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               aggregation, c.k, c.ell);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok()) << grd.status();
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_LE(grd->objective, opt->objective + 1e-9) << problem.ToString();
  EXPECT_TRUE(core::ValidatePartition(problem, *grd).ok());
  EXPECT_NEAR(core::RecomputeObjective(problem, *grd), grd->objective,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, AvSanityTest,
    testing::Combine(testing::Values(Case{6, 4, 2, 2, 21},
                                     Case{7, 5, 2, 3, 22},
                                     Case{8, 5, 3, 3, 23},
                                     Case{9, 6, 2, 4, 24},
                                     Case{10, 5, 1, 3, 25}),
                     testing::Values(Aggregation::kMin, Aggregation::kSum,
                                     Aggregation::kMax)));

}  // namespace
}  // namespace groupform
