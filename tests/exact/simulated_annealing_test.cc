// SimulatedAnnealingSolver: seed domination, validity, determinism,
// closeness to the optimum on small instances, and the registry's
// refusal of a cooling interval below 1.
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "exact/simulated_annealing.h"
#include "exact/register_solvers.h"
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

TEST(SimulatedAnnealing, NeverBelowGreedySeed) {
  const auto matrix = data::GenerateClusteredDense(60, 20, 6, 81);
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    const auto problem =
        Problem(matrix, semantics, Aggregation::kMin, 3, 6);
    const auto greedy = core::RunGreedy(problem);
    ASSERT_TRUE(greedy.ok());
    exact::SimulatedAnnealingSolver::Options options;
    options.iterations = 4000;
    const auto sa =
        exact::SimulatedAnnealingSolver(problem, options).Solve(23);
    ASSERT_TRUE(sa.ok()) << sa.status();
    EXPECT_GE(sa->objective, greedy->objective - 1e-9)
        << problem.ToString();
    EXPECT_TRUE(core::ValidatePartition(problem, *sa).ok());
  }
}

TEST(SimulatedAnnealing, ApproachesTheOptimumOnSmallInstances) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto matrix = data::GenerateUniformDense(
        10, 5, data::RatingScale{1.0, 5.0}, seed);
    const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                                 Aggregation::kMin, 2, 3);
    const auto opt = exact::SubsetDpSolver(problem).Solve(0);
    ASSERT_TRUE(opt.ok());
    exact::SimulatedAnnealingSolver::Options options;
    options.iterations = 8000;
    const auto sa =
        exact::SimulatedAnnealingSolver(problem, options).Solve(23);
    ASSERT_TRUE(sa.ok());
    EXPECT_LE(sa->objective, opt->objective + 1e-9);
    EXPECT_GE(sa->objective, 0.9 * opt->objective) << "seed " << seed;
  }
}

TEST(SimulatedAnnealing, DeterministicForFixedSeed) {
  const auto matrix = data::GenerateClusteredDense(40, 15, 4, 83);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kSum, 3, 4);
  exact::SimulatedAnnealingSolver::Options options;
  options.iterations = 2000;
  const auto a = exact::SimulatedAnnealingSolver(problem, options).Solve(23);
  const auto b = exact::SimulatedAnnealingSolver(problem, options).Solve(23);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
}

TEST(SimulatedAnnealing, RandomInitStillProducesValidPartitions) {
  const auto matrix = data::GenerateClusteredDense(50, 15, 5, 85);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kSum, 2, 5);
  exact::SimulatedAnnealingSolver::Options options;
  options.init_with_greedy = false;
  options.iterations = 3000;
  const auto sa = exact::SimulatedAnnealingSolver(problem, options).Solve(23);
  ASSERT_TRUE(sa.ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *sa).ok());
}

TEST(SimulatedAnnealing, SingleGroupDegeneratesGracefully) {
  const auto matrix = data::GenerateClusteredDense(20, 10, 2, 87);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 2, 1);
  exact::SimulatedAnnealingSolver::Options options;
  options.iterations = 500;
  const auto sa = exact::SimulatedAnnealingSolver(problem, options).Solve(23);
  ASSERT_TRUE(sa.ok());
  EXPECT_EQ(sa->num_groups(), 1);
  EXPECT_TRUE(core::ValidatePartition(problem, *sa).ok());
}

TEST(SimulatedAnnealing, RegistryRefusesACoolingIntervalOutsideTheIntRange) {
  exact::RegisterExactSolvers();  // idempotent: duplicates are rejected
  auto& registry = core::SolverRegistry::Global();
  const auto matrix = data::GenerateClusteredDense(10, 6, 2, 89);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 2, 3);
  for (const char* name : {"sa", "anytime:sa"}) {
    // 2^31 and 2^32 would wrap to INT_MIN and 0 in the int field.
    for (const char* interval :
         {"0", "-3", "zebra", "2147483648", "4294967296"}) {
      const auto refused = registry.Create(
          name, problem,
          core::SolverOptions().Set("cooling_interval", interval));
      ASSERT_FALSE(refused.ok()) << name << " " << interval;
      EXPECT_EQ(refused.status().code(),
                common::StatusCode::kInvalidArgument)
          << name << " " << interval;
      EXPECT_NE(refused.status().message().find("cooling_interval"),
                std::string::npos)
          << name;
    }
    for (const char* interval : {"1", "2147483647"}) {
      const auto accepted = registry.Create(
          name, problem,
          core::SolverOptions().Set("cooling_interval", interval));
      ASSERT_TRUE(accepted.ok()) << name << " " << accepted.status();
      EXPECT_TRUE((*accepted)->Solve(core::FormationSolver::kDefaultSeed).ok())
          << name << " " << interval;
    }
  }
}

}  // namespace
}  // namespace groupform
