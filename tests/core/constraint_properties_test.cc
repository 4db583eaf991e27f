// Property harness for the constrained solver family (DESIGN.md §17):
// every constrained registry solver runs on 24 randomized sparse
// instances (GenerateScaleSparse, varying population, semantics, and
// spec). The contract under test — a constrained solver either returns
// a partition that satisfies its spec, with an honest objective and an
// honest floor_violations count, or fails INVALID_ARGUMENT; never a
// silently-violating OK. Each accepted solution is additionally bounded
// from above by unconstrained local search warm-started from the
// constrained partition: the climber starts at or above the constrained
// solution and only improves, so its converged objective dominates it
// (plain "<= greedy" would be unsound — LM splits can beat the greedy
// partition).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/constrained.h"
#include "core/formation.h"
#include "core/solver.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "grouprec/semantics.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

using core::ConstraintSpec;
using core::FormationProblem;
using core::FormationResult;
using grouprec::Aggregation;
using grouprec::Semantics;

constexpr int kInstances = 24;
constexpr int kMaxGroups = 6;

data::RatingMatrix Matrix(int index) {
  data::ScaleConfig config;
  config.num_users = 30 + 10 * (index % 5);
  config.num_items = 40;
  config.min_ratings_per_user = 8;
  config.max_ratings_per_user = 20;
  config.seed = 9000 + static_cast<std::uint64_t>(index);
  return data::GenerateScaleSparse(config);
}

FormationProblem Problem(const data::RatingMatrix& matrix, int index) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = (index % 2 == 0) ? Semantics::kLeastMisery
                                       : Semantics::kAggregateVoting;
  problem.aggregation = Aggregation::kMin;
  problem.k = 3;
  problem.max_groups = kMaxGroups;
  return problem;
}

/// A spec the solver under test supports, varied by instance index:
/// size bounds always (occasionally unbounded capacity), link pairs for
/// the link-aware solvers (must-link atoms at the id head, cannot-link
/// at the tail, so the two never collide), a floor for fairgreedy on
/// even instances. Capacities are near ceil(n / ell) so the repair path
/// actually runs; some index combinations are still infeasible, which
/// is part of the property (they must reject, not violate).
ConstraintSpec SpecFor(const std::string& solver, int index, int n) {
  ConstraintSpec spec;
  spec.min_group_size = 1 + index % 2;
  if (index % 4 != 0) {
    spec.max_group_size = (n + kMaxGroups - 1) / kMaxGroups + index % 5;
  }
  if (solver != "capgreedy") {
    for (int p = 0; p <= index % 3; ++p) {
      spec.must_link.push_back({2 * p, 2 * p + 1});
    }
    if (index % 2 == 1) spec.cannot_link.push_back({n - 1, n - 2});
    if (index % 3 == 2) spec.cannot_link.push_back({n - 3, n - 4});
  }
  if (solver == "fairgreedy" && index % 2 == 0) {
    spec.has_min_user_sat = true;
    spec.min_user_sat = 1.5 + 0.5 * (index % 4);
  }
  return spec;
}

void ExpectMessageContains(const common::Status& status,
                           const std::string& needle) {
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << "status message \"" << status.message()
      << "\" does not mention \"" << needle << "\"";
}

/// The harness body: never-silently-violating, honest objective, honest
/// floor count, and the warm-started-local-search dominance bound.
void RunHarness(const std::string& solver) {
  solvers::EnsureBuiltinSolversRegistered();
  int accepted = 0;
  for (int index = 0; index < kInstances; ++index) {
    SCOPED_TRACE(solver + " instance " + std::to_string(index));
    const auto matrix = Matrix(index);
    auto problem = Problem(matrix, index);
    problem.constraints =
        SpecFor(solver, index, static_cast<int>(matrix.num_users()));
    ASSERT_TRUE(problem.Validate().ok()) << problem.Validate();

    const auto outcome = eval::RunAlgorithmByName(solver, problem, /*seed=*/99);
    if (!outcome.ok()) {
      // Rejection is allowed, but only as INVALID_ARGUMENT (infeasible
      // spec), never as a crash code or a silent mangling.
      EXPECT_EQ(outcome.status().code(),
                common::StatusCode::kInvalidArgument)
          << outcome.status();
      continue;
    }
    ++accepted;
    const FormationResult& result = outcome->result;

    int floor_violations = 0;
    const auto check = core::CheckPartition(problem, problem.constraints,
                                            result, &floor_violations);
    EXPECT_TRUE(check.ok()) << check;
    EXPECT_EQ(floor_violations, result.floor_violations);

    // Honest self-reporting: the claimed objective is the recomputed
    // objective of the returned partition (candidate_depth == 0, so the
    // recomputation scans the same full catalogue the solver did).
    EXPECT_NEAR(core::RecomputeObjective(problem, result), result.objective,
                1e-9);

    // Dominance bound: unconstrained local search warm-started from the
    // constrained partition starts at (or above) it and only climbs.
    std::vector<std::vector<UserId>> partition;
    partition.reserve(result.groups.size());
    for (const auto& group : result.groups) {
      partition.push_back(group.members);
    }
    core::SolverOptions warm;
    warm.SetStartAssignment(partition);
    warm.Set("use_swaps", "0");
    const auto bound =
        eval::RunAlgorithmByName("localsearch", problem, /*seed=*/99, warm);
    ASSERT_TRUE(bound.ok()) << bound.status();
    EXPECT_LE(result.objective, bound->result.objective + 1e-9);
  }
  // The harness must mostly exercise satisfied specs — a wall of
  // rejections would pin nothing about the repair pipeline.
  EXPECT_GE(accepted, kInstances / 2) << solver;
}

TEST(ConstraintProperties, CapGreedySatisfiesSpecOrRejects) {
  RunHarness("capgreedy");
}

TEST(ConstraintProperties, PairGreedySatisfiesSpecOrRejects) {
  RunHarness("pairgreedy");
}

TEST(ConstraintProperties, FairGreedySatisfiesSpecOrRejects) {
  RunHarness("fairgreedy");
}

// --- Per-solver unsupported spec parts: INVALID_ARGUMENT that names the
// solver to reach for, never a silent drop of the constraint. ---

TEST(ConstraintProperties, CapGreedyRejectsUnsupportedSpecParts) {
  solvers::EnsureBuiltinSolversRegistered();
  const auto matrix = Matrix(0);
  auto problem = Problem(matrix, 0);
  problem.constraints.must_link.push_back({0, 1});
  auto outcome = eval::RunAlgorithmByName("capgreedy", problem);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kInvalidArgument);
  ExpectMessageContains(outcome.status(), "capgreedy supports size bounds only");

  problem.constraints = ConstraintSpec();
  problem.constraints.has_min_user_sat = true;
  problem.constraints.min_user_sat = 2.0;
  outcome = eval::RunAlgorithmByName("capgreedy", problem);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(ConstraintProperties, PairGreedyRejectsFairnessFloor) {
  solvers::EnsureBuiltinSolversRegistered();
  const auto matrix = Matrix(1);
  auto problem = Problem(matrix, 1);
  problem.constraints.has_min_user_sat = true;
  problem.constraints.min_user_sat = 2.0;
  const auto outcome = eval::RunAlgorithmByName("pairgreedy", problem);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kInvalidArgument);
  ExpectMessageContains(outcome.status(), "pairgreedy does not support min_user_sat");
}

TEST(ConstraintProperties, ContradictoryLinksRejected) {
  // must_link fuses {0,1,2} transitively; cannot_link(0,2) contradicts.
  solvers::EnsureBuiltinSolversRegistered();
  const auto matrix = Matrix(2);
  for (const char* solver : {"pairgreedy", "fairgreedy"}) {
    auto problem = Problem(matrix, 2);
    problem.constraints.must_link = {{0, 1}, {1, 2}};
    problem.constraints.cannot_link = {{0, 2}};
    const auto outcome = eval::RunAlgorithmByName(solver, problem);
    ASSERT_FALSE(outcome.ok()) << solver;
    EXPECT_EQ(outcome.status().code(),
              common::StatusCode::kInvalidArgument)
        << solver;
    ExpectMessageContains(outcome.status(), "inseparable");
  }
}

TEST(ConstraintProperties, OversizedMustLinkAtomRejected) {
  // Small population so the capacity itself is feasible (15 <= 6 * 3)
  // and the fused atom is the one thing that cannot fit.
  solvers::EnsureBuiltinSolversRegistered();
  data::ScaleConfig config;
  config.num_users = 15;
  config.num_items = 40;
  config.seed = 9003;
  const auto matrix = data::GenerateScaleSparse(config);
  auto problem = Problem(matrix, 3);
  problem.constraints.max_group_size = 3;
  problem.constraints.must_link = {{0, 1}, {1, 2}, {2, 3}};  // atom of 4
  const auto outcome = eval::RunAlgorithmByName("pairgreedy", problem);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kInvalidArgument);
  ExpectMessageContains(outcome.status(), "above max_group_size=3");
}

TEST(ConstraintProperties, InfeasibleCapacityNamesTheNumbers) {
  // 70 users cannot fit 6 groups of <= 5: the rejection must carry the
  // bound and the offending numbers, not a bare "infeasible".
  solvers::EnsureBuiltinSolversRegistered();
  data::ScaleConfig config;
  config.num_users = 70;
  config.num_items = 40;
  config.seed = 9100;
  const auto matrix = data::GenerateScaleSparse(config);
  auto problem = Problem(matrix, 0);
  problem.constraints.max_group_size = 5;
  for (const char* solver : {"capgreedy", "pairgreedy", "fairgreedy"}) {
    const auto outcome = eval::RunAlgorithmByName(solver, problem);
    ASSERT_FALSE(outcome.ok()) << solver;
    EXPECT_EQ(outcome.status().code(),
              common::StatusCode::kInvalidArgument)
        << solver;
    ExpectMessageContains(outcome.status(), "5");
    ExpectMessageContains(outcome.status(), "70");
  }
}

}  // namespace
}  // namespace groupform
