// Size-constrained formation through the capgreedy registry solver:
// constraint satisfaction, honest re-scoring, and infeasibility detection,
// plus the family-wide rule that every member rejects an infeasible spec
// with the same message.
#include <gtest/gtest.h>

#include <string>

#include "core/constrained.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "grouprec/semantics.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

using core::ConstraintSpec;
using core::FormationProblem;
using grouprec::Aggregation;
using grouprec::Semantics;

/// Runs registry solver `solver` on `problem` under `constraints`.
common::StatusOr<core::FormationResult> RunConstrained(
    const std::string& solver, FormationProblem problem,
    const ConstraintSpec& constraints) {
  solvers::EnsureBuiltinSolversRegistered();
  problem.constraints = constraints;
  GF_ASSIGN_OR_RETURN(auto outcome,
                      eval::RunAlgorithmByName(solver, problem));
  return outcome.result;
}

common::StatusOr<core::FormationResult> RunCapGreedy(
    const FormationProblem& problem, const ConstraintSpec& constraints) {
  return RunConstrained("capgreedy", problem, constraints);
}

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

void ExpectSizesWithin(const core::FormationResult& result,
                       const ConstraintSpec& constraints) {
  for (const auto& g : result.groups) {
    EXPECT_GE(static_cast<int>(g.members.size()),
              constraints.min_group_size);
    if (constraints.max_group_size > 0) {
      EXPECT_LE(static_cast<int>(g.members.size()),
                constraints.max_group_size);
    }
  }
}

TEST(SizeConstrained, EnforcesMinimumAndMaximum) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(200, 60, 501));
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    const auto problem =
        Problem(matrix, semantics, Aggregation::kMin, 4, 20);
    ConstraintSpec constraints;
    constraints.min_group_size = 5;
    constraints.max_group_size = 40;
    const auto result =
        RunCapGreedy(problem, constraints);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectSizesWithin(*result, constraints);
    EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
    // The reported objective is honest (matches recomputation).
    EXPECT_NEAR(core::RecomputeObjective(problem, *result),
                result->objective, 1e-9);
  }
}

TEST(SizeConstrained, UnconstrainedEqualsPlainGreedy) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(120, 40, 503));
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMax, 3, 8);
  const auto constrained =
      RunCapGreedy(problem, ConstraintSpec{});
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(constrained.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_NEAR(constrained->objective, greedy->objective, 1e-9);
  EXPECT_EQ(constrained->num_groups(), greedy->num_groups());
}

TEST(SizeConstrained, MaxSizeRepairCostsLittleUnderLm) {
  // Splitting an oversized LM group is free (every part's LM scores are
  // pointwise >= the whole's), but once the group budget is exhausted the
  // repair rebalances overflow into other groups, which can lower their
  // LM scores — the constrained objective may dip slightly below the
  // unconstrained greedy's, never catastrophically.
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(150, 50, 505));
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMax, 3, 30);
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(greedy.ok());
  ConstraintSpec constraints;
  constraints.max_group_size = 20;
  const auto result = RunCapGreedy(problem, constraints);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectSizesWithin(*result, constraints);
  EXPECT_GE(result->objective, 0.85 * greedy->objective);
  // (A "plenty of spare slots" variant would not exercise anything new:
  // the LM greedy always consumes every one of its ell slots — splitting
  // buckets is free — so the repair always runs in the rebalancing
  // regime.)
}

TEST(SizeConstrained, RejectsInfeasibleConstraints) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(100, 30, 507));
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 3, 4);
  ConstraintSpec too_small_cap;
  too_small_cap.max_group_size = 10;  // 4 groups x 10 < 100 users
  EXPECT_EQ(RunCapGreedy(problem, too_small_cap)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);

  ConstraintSpec inverted;
  inverted.min_group_size = 10;
  inverted.max_group_size = 5;
  EXPECT_FALSE(
      RunCapGreedy(problem, inverted).ok());

  ConstraintSpec zero_min;
  zero_min.min_group_size = 0;
  EXPECT_FALSE(RunCapGreedy(problem, zero_min).ok());
}

TEST(SizeConstrained, TightCapacityRebalancesWithoutSpareSlots) {
  // 60 users into exactly 6 groups of <= 10: no spare slots, so the
  // repair must rebalance overflow rather than split into new groups.
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(60, 30, 509));
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 3, 6);
  ConstraintSpec constraints;
  constraints.max_group_size = 10;
  const auto result = RunCapGreedy(problem, constraints);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectSizesWithin(*result, constraints);
  EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
}

TEST(ConstrainedFamily, InfeasibleSpecsAnswerOneMessageUnderEveryMember) {
  // The family shares one size-feasibility check, so an unsatisfiable
  // capacity or minimum size reads the same whichever member is asked.
  const auto crowd = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(70, 30, 511));
  const auto few = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(7, 20, 513));
  ConstraintSpec capacity;
  capacity.max_group_size = 5;
  ConstraintSpec population;
  population.min_group_size = 9;
  for (const char* solver : {"capgreedy", "pairgreedy", "fairgreedy"}) {
    SCOPED_TRACE(solver);
    const auto over = RunConstrained(
        solver, Problem(crowd, Semantics::kLeastMisery, Aggregation::kMin, 3, 6),
        capacity);
    EXPECT_EQ(over.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_EQ(over.status().message(),
              "max_group_size=5 cannot hold 70 users within 6 groups "
              "(capacity 30)");
    const auto under = RunConstrained(
        solver, Problem(few, Semantics::kAggregateVoting, Aggregation::kSum, 3, 3),
        population);
    EXPECT_EQ(under.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_EQ(under.status().message(),
              "min_group_size=9 exceeds the population of 7 users");
  }
}

}  // namespace
}  // namespace groupform
