// End-to-end pipeline: generate sparse data -> form groups (several
// solvers) -> evaluate. Exercises the seams between the modules rather
// than any one module.
#include <gtest/gtest.h>

#include "baseline/cluster_baseline.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/weighted_objective.h"
#include "exact/local_search.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

TEST(Pipeline, SparseToFormedToEvaluated) {
  // 1. Sparse explicit feedback.
  auto config = data::YahooMusicLikeConfig(400, 120, /*seed=*/606);
  config.min_ratings_per_user = 10;
  config.max_ratings_per_user = 30;
  const auto sparse = data::GenerateLatentFactor(config);
  ASSERT_LT(sparse.Density(), 0.3);

  // 2. Form groups on the sparse matrix as given.
  core::FormationProblem problem;
  problem.matrix = &sparse;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMax;
  problem.k = 5;
  problem.max_groups = 12;
  const auto formed = core::RunGreedy(problem);
  ASSERT_TRUE(formed.ok());

  // 3. The solution validates, and the solver ladder behaves.
  EXPECT_TRUE(core::ValidatePartition(problem, *formed).ok());
  const auto refined = exact::LocalSearchSolver(problem).Solve(17);
  ASSERT_TRUE(refined.ok());
  EXPECT_GE(refined->objective, formed->objective - 1e-9);
  const auto clustered = baseline::BaselineFormer(problem).Solve(99);
  ASSERT_TRUE(clustered.ok());
  EXPECT_GE(formed->objective, clustered->objective - 1e-9);

  // 4. Metrics are finite and consistent.
  EXPECT_GT(eval::AvgGroupSatisfaction(problem, *formed), 0.0);
  EXPECT_GT(eval::MeanPerUserSatisfaction(problem, *formed),
            sparse.scale().min - 1e-9);
  const double ndcg = eval::MeanUserNdcg(problem, *formed);
  EXPECT_GT(ndcg, 0.0);
  EXPECT_LE(ndcg, 1.0 + 1e-9);
}

TEST(Pipeline, IncrementalRoundsTrackArrivalsAndDepartures) {
  // Operational loop: nightly formation over a changing population.
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(300, 80, /*seed=*/707));
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kAggregateVoting;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 4;
  problem.max_groups = 10;

  core::IncrementalFormer former(problem);
  // Night 1: first 200 users signed up.
  for (UserId u = 0; u < 200; ++u) ASSERT_TRUE(former.AddUser(u).ok());
  const auto night1 = former.Form();
  ASSERT_TRUE(night1.ok());
  // Night 2: 100 arrivals, 50 departures.
  for (UserId u = 200; u < 300; ++u) ASSERT_TRUE(former.AddUser(u).ok());
  for (UserId u = 0; u < 50; ++u) ASSERT_TRUE(former.RemoveUser(u).ok());
  const auto night2 = former.Form();
  ASSERT_TRUE(night2.ok());
  EXPECT_EQ(former.num_active(), 250);
  // Both nights produced at most ell groups covering the active users.
  std::int64_t covered = 0;
  for (const auto& g : night2->groups) {
    covered += static_cast<std::int64_t>(g.members.size());
  }
  EXPECT_EQ(covered, 250);
  EXPECT_LE(night2->num_groups(), 10);
}

TEST(Pipeline, ConstrainedFormationFeedsTheGroupBudget) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(240, 60, /*seed=*/808));
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMax;
  problem.k = 5;
  problem.max_groups = 12;
  problem.constraints.min_group_size = 8;
  problem.constraints.max_group_size = 40;
  solvers::EnsureBuiltinSolversRegistered();
  const auto outcome = eval::RunAlgorithmByName("capgreedy", problem);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const auto* result = &outcome->result;
  for (const auto& g : result->groups) {
    EXPECT_GE(g.members.size(), 8u);
    EXPECT_LE(g.members.size(), 40u);
  }
}

}  // namespace
}  // namespace groupform
