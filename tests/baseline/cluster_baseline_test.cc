// The full Baseline-LM / Baseline-AV pipeline, and the paper's headline
// qualitative claim: GRD beats the semantics-agnostic clustering baseline.
#include <gtest/gtest.h>

#include "baseline/cluster_baseline.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
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

TEST(ClusterBaseline, ProducesValidPartitionsUnderBothSemantics) {
  const auto matrix = data::GenerateClusteredDense(80, 40, 8, 61);
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    for (const auto aggregation :
         {Aggregation::kMax, Aggregation::kMin, Aggregation::kSum}) {
      const auto problem = Problem(matrix, semantics, aggregation, 5, 8);
      const auto result = baseline::BaselineFormer(problem).Solve(99);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(core::ValidatePartition(problem, *result).ok())
          << problem.ToString();
      EXPECT_LE(result->num_groups(), 8);
    }
  }
}

TEST(ClusterBaseline, AlgorithmNameMatchesPaperNomenclature) {
  const auto matrix = data::GenerateClusteredDense(20, 10, 2, 63);
  auto problem = Problem(matrix, Semantics::kLeastMisery, Aggregation::kMax,
                         2, 3);
  EXPECT_EQ(baseline::BaselineFormer::AlgorithmName(problem),
            "Baseline-LM-MAX");
  const auto result = baseline::BaselineFormer(problem).Solve(99);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->algorithm, "Baseline-LM-MAX");
}

TEST(ClusterBaseline, GreedyBeatsBaselineOnClusteredPopulations) {
  // The paper's central quality claim (Figures 1-2): under LM the
  // semantics-aware greedy dominates the rank-distance clustering
  // baseline on taste-clustered data.
  const auto matrix = data::GenerateClusteredDense(150, 60, 12, 67);
  for (const auto aggregation :
       {Aggregation::kMax, Aggregation::kMin, Aggregation::kSum}) {
    const auto problem =
        Problem(matrix, Semantics::kLeastMisery, aggregation, 5, 10);
    const auto grd = core::RunGreedy(problem);
    const auto base = baseline::BaselineFormer(problem).Solve(99);
    ASSERT_TRUE(grd.ok());
    ASSERT_TRUE(base.ok());
    EXPECT_GE(grd->objective, base->objective) << problem.ToString();
  }
}

TEST(ClusterBaseline, GreedyIsAtWorstCompetitiveUnderAv) {
  // AV rewards large merged groups (the paper's Example 4 subtlety), so
  // the whole-bucket greedy has no guarantee against the baseline's big
  // balanced clusters; it must still stay in the same league.
  const auto matrix = data::GenerateClusteredDense(150, 60, 12, 67);
  for (const auto aggregation : {Aggregation::kMax, Aggregation::kSum}) {
    const auto problem =
        Problem(matrix, Semantics::kAggregateVoting, aggregation, 5, 10);
    const auto grd = core::RunGreedy(problem);
    const auto base = baseline::BaselineFormer(problem).Solve(99);
    ASSERT_TRUE(grd.ok());
    ASSERT_TRUE(base.ok());
    EXPECT_GE(grd->objective, 0.8 * base->objective) << problem.ToString();
  }
}

TEST(ClusterBaseline, OnDemandDistancesMatchCachedDistances) {
  const auto matrix = data::GenerateClusteredDense(50, 20, 5, 71);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 3, 5);
  baseline::BaselineFormer::Options cached;
  cached.cache_pairwise_up_to = 1000;
  baseline::BaselineFormer::Options on_demand;
  on_demand.cache_pairwise_up_to = 0;
  const auto a = baseline::BaselineFormer(problem, cached).Solve(99);
  const auto b = baseline::BaselineFormer(problem, on_demand).Solve(99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

TEST(ClusterBaseline, FewerUsersThanGroupsDegradesGracefully) {
  const auto matrix = data::GenerateClusteredDense(5, 10, 2, 73);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 2, 10);
  const auto result = baseline::BaselineFormer(problem).Solve(99);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
}

}  // namespace
}  // namespace groupform
