// LocalSearchSolver: never worse than its greedy seed, close to optimal on
// small instances, valid everywhere.
#include <gtest/gtest.h>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "exact/local_search.h"
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

TEST(LocalSearch, NeverBelowGreedySeed) {
  const auto matrix = data::GenerateClusteredDense(60, 20, 6, 31);
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    for (const auto aggregation :
         {Aggregation::kMax, Aggregation::kMin, Aggregation::kSum}) {
      const auto problem = Problem(matrix, semantics, aggregation, 3, 6);
      const auto greedy = core::RunGreedy(problem);
      ASSERT_TRUE(greedy.ok());
      const auto ls = exact::LocalSearchSolver(problem).Solve(17);
      ASSERT_TRUE(ls.ok()) << ls.status();
      EXPECT_GE(ls->objective, greedy->objective - 1e-9)
          << problem.ToString();
      EXPECT_TRUE(core::ValidatePartition(problem, *ls).ok());
    }
  }
}

TEST(LocalSearch, ReachesOrApproachesTheOptimumOnSmallInstances) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto matrix = data::GenerateUniformDense(
        9, 5, data::RatingScale{1.0, 5.0}, seed);
    const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                                 Aggregation::kMin, 2, 3);
    const auto opt = exact::SubsetDpSolver(problem).Solve(0);
    ASSERT_TRUE(opt.ok());
    const auto ls = exact::LocalSearchSolver(problem).Solve(17);
    ASSERT_TRUE(ls.ok());
    EXPECT_LE(ls->objective, opt->objective + 1e-9);
    // Hill climbing from the greedy seed should recover most of the gap.
    EXPECT_GE(ls->objective, 0.9 * opt->objective);
  }
}

TEST(LocalSearch, RandomInitAlsoProducesValidPartitions) {
  const auto matrix = data::GenerateClusteredDense(40, 15, 4, 37);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kSum, 3, 5);
  exact::LocalSearchSolver::Options options;
  options.init_with_greedy = false;
  options.max_passes = 10;
  const auto result = exact::LocalSearchSolver(problem, options).Solve(17);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
}

TEST(LocalSearch, DeterministicForFixedSeed) {
  const auto matrix = data::GenerateClusteredDense(30, 12, 3, 41);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kSum, 2, 4);
  const auto a = exact::LocalSearchSolver(problem).Solve(17);
  const auto b = exact::LocalSearchSolver(problem).Solve(17);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

}  // namespace
}  // namespace groupform
