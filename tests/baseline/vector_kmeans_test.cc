// Vector k-means baseline former.
#include <gtest/gtest.h>

#include "baseline/vector_kmeans.h"
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

TEST(VectorKMeans, ProducesValidPartitions) {
  const auto matrix = data::GenerateClusteredDense(90, 40, 9, 51);
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    const auto problem =
        Problem(matrix, semantics, Aggregation::kMin, 4, 9);
    const auto result = baseline::VectorKMeansFormer(problem).Solve(99);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
    EXPECT_LE(result->num_groups(), 9);
  }
}

TEST(VectorKMeans, RecoversPlantedTasteClusters) {
  // Dense clustered data with as many groups as planted clusters: the
  // vector baseline should find clusters that score far above random.
  const auto matrix = data::GenerateClusteredDense(120, 30, 6, 53);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kSum, 3, 6);
  const auto result = baseline::VectorKMeansFormer(problem).Solve(99);
  ASSERT_TRUE(result.ok());
  // Every cluster should be non-trivial on planted-cluster data.
  for (const auto& g : result->groups) {
    EXPECT_GE(g.members.size(), 2u);
  }
}

TEST(VectorKMeans, DimensionalityCapIsHonored) {
  const auto matrix = data::GenerateClusteredDense(60, 50, 4, 55);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kMin, 3, 4);
  baseline::VectorKMeansFormer::Options options;
  options.top_items = 8;  // much smaller than the 50-item catalogue
  const auto result =
      baseline::VectorKMeansFormer(problem, options).Solve(99);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
}

TEST(VectorKMeans, DeterministicForFixedSeed) {
  const auto matrix = data::GenerateClusteredDense(70, 25, 5, 57);
  const auto problem = Problem(matrix, Semantics::kLeastMisery,
                               Aggregation::kSum, 3, 5);
  const auto a = baseline::VectorKMeansFormer(problem).Solve(99);
  const auto b = baseline::VectorKMeansFormer(problem).Solve(99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

TEST(VectorKMeans, AlgorithmLabel) {
  const auto matrix = data::GenerateClusteredDense(20, 10, 2, 59);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kMax, 2, 3);
  const auto result = baseline::VectorKMeansFormer(problem).Solve(99);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->algorithm, "VecKMeans-AV-MAX");
}

}  // namespace
}  // namespace groupform
