// MeanUserNdcg, the per-user NDCG oracle of the served metrics pass (§6).
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "data/paper_examples.h"
#include "data/synthetic.h"
#include "eval/weighted_objective.h"

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

TEST(MeanUserNdcg, SingletonGroupsScoreOne) {
  const auto matrix = data::PaperExample1();
  // ell = 6 under LM: everyone in a singleton group with their own list.
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 2, 6);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(eval::MeanUserNdcg(problem, *result), 1.0, 1e-9);
}

TEST(MeanUserNdcg, ResidualMembersDragTheMeanBelowOne) {
  const auto matrix = data::GenerateClusteredDense(80, 30, 4, 63);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 5, 3);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok());
  const double mean = eval::MeanUserNdcg(problem, *result);
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 1.0 + 1e-9);
}

}  // namespace
}  // namespace groupform
