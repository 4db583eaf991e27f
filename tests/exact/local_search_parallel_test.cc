// The parallel pass of LocalSearchSolver (DESIGN.md §10.3): the pool-
// planned moves match an independent serial reference implementation on
// randomized instances, and the objective is monotone non-decreasing per
// pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "exact/local_search.h"
#include "exact/move_evaluator.h"
#include "exact/register_solvers.h"

namespace groupform {
namespace {

using core::FormationProblem;
using exact::LocalSearchSolver;
using PlannedMove = LocalSearchSolver::PlannedMove;

FormationProblem Problem(const data::RatingMatrix& matrix, int k, int ell) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = k;
  problem.max_groups = ell;
  return problem;
}

/// A random (possibly unbalanced, possibly with empty groups) partition.
std::vector<std::vector<UserId>> RandomPartition(std::int32_t num_users,
                                                 int ell,
                                                 std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<UserId>> groups(static_cast<std::size_t>(ell));
  for (UserId u = 0; u < num_users; ++u) {
    groups[static_cast<std::size_t>(
               rng.NextUint64(static_cast<std::uint64_t>(ell)))]
        .push_back(u);
  }
  return groups;
}

double Evaluate(const FormationProblem& problem,
                const grouprec::GroupScorer& scorer,
                const std::vector<UserId>& members) {
  if (members.empty()) return 0.0;
  const auto list = core::ComputeGroupList(problem, scorer, members);
  return core::AggregateListSatisfaction(
      problem, static_cast<int>(members.size()), list);
}

/// Independent serial re-implementation of the per-user move policy:
/// best relocation (targets in group order, one empty slot considered),
/// else the first improving sampled swap from the user's (pass_seed, u)
/// stream. Deliberately written from the documented policy, not by
/// calling into the solver.
PlannedMove ReferencePlan(const FormationProblem& problem,
                          const grouprec::GroupScorer& scorer,
                          const std::vector<std::vector<UserId>>& groups,
                          const std::vector<double>& satisfaction,
                          const std::vector<int>& group_of, UserId u,
                          std::uint64_t pass_seed,
                          const LocalSearchSolver::Options& options) {
  PlannedMove move;
  if (groups.size() <= 1) return move;
  const int from = group_of[static_cast<std::size_t>(u)];
  std::vector<UserId> from_without = groups[static_cast<std::size_t>(from)];
  from_without.erase(
      std::find(from_without.begin(), from_without.end(), u));
  const double from_without_sat = Evaluate(problem, scorer, from_without);

  bool considered_empty = false;
  for (std::size_t to = 0; to < groups.size(); ++to) {
    if (static_cast<int>(to) == from) continue;
    if (groups[to].empty()) {
      if (considered_empty) continue;
      considered_empty = true;
    }
    std::vector<UserId> to_with = groups[to];
    to_with.push_back(u);
    std::sort(to_with.begin(), to_with.end());
    const double to_with_sat = Evaluate(problem, scorer, to_with);
    const double gain =
        (from_without_sat + to_with_sat) -
        (satisfaction[static_cast<std::size_t>(from)] + satisfaction[to]);
    const double bar =
        move.kind == PlannedMove::Kind::kNone ? options.min_improvement
                                              : move.gain;
    if (gain > bar) {
      move.kind = PlannedMove::Kind::kRelocate;
      move.to = static_cast<int>(to);
      move.gain = gain;
      move.from_sat = from_without_sat;
      move.to_sat = to_with_sat;
    }
  }
  if (move.kind == PlannedMove::Kind::kRelocate || !options.use_swaps) {
    return move;
  }

  common::Rng rng = exact::SwapRngForUser(pass_seed, u);
  for (std::size_t to = 0; to < groups.size(); ++to) {
    if (static_cast<int>(to) == from || groups[to].empty()) continue;
    for (int s = 0; s < options.swap_samples; ++s) {
      const auto& dst = groups[to];
      const UserId v =
          dst[static_cast<std::size_t>(rng.NextUint64(dst.size()))];
      std::vector<UserId> from_swapped = from_without;
      from_swapped.push_back(v);
      std::sort(from_swapped.begin(), from_swapped.end());
      std::vector<UserId> to_swapped = dst;
      to_swapped.erase(
          std::find(to_swapped.begin(), to_swapped.end(), v));
      to_swapped.push_back(u);
      std::sort(to_swapped.begin(), to_swapped.end());
      const double from_sat = Evaluate(problem, scorer, from_swapped);
      const double to_sat = Evaluate(problem, scorer, to_swapped);
      const double gain =
          (from_sat + to_sat) -
          (satisfaction[static_cast<std::size_t>(from)] + satisfaction[to]);
      if (gain > options.min_improvement) {
        move.kind = PlannedMove::Kind::kSwap;
        move.to = static_cast<int>(to);
        move.partner = v;
        move.gain = gain;
        move.from_sat = from_sat;
        move.to_sat = to_sat;
        return move;
      }
    }
  }
  return move;
}

class LocalSearchParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }
};

TEST_F(LocalSearchParallelTest, ParallelPlanMatchesSerialReference) {
  for (const std::uint64_t trial : {1u, 2u, 3u, 4u}) {
    const std::int32_t num_users = 20 + static_cast<std::int32_t>(trial) * 7;
    const int ell = 2 + static_cast<int>(trial);
    const auto matrix = data::GenerateLatentFactor(
        data::MovieLensLikeConfig(num_users, 25, /*seed=*/trial * 13));
    const auto problem = Problem(matrix, /*k=*/3, ell);
    const auto scorer = problem.MakeScorer();
    const auto groups = RandomPartition(num_users, ell, trial * 101);

    std::vector<double> satisfaction(groups.size());
    const auto scores = core::ScoreGroups(problem, scorer, groups);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      satisfaction[g] = scores[g].satisfaction;
    }
    std::vector<int> group_of(static_cast<std::size_t>(num_users), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (UserId u : groups[g]) {
        group_of[static_cast<std::size_t>(u)] = static_cast<int>(g);
      }
    }
    std::vector<UserId> visit_order(static_cast<std::size_t>(num_users));
    for (std::int32_t u = 0; u < num_users; ++u) {
      visit_order[static_cast<std::size_t>(u)] = u;
    }
    common::Rng(trial * 7).Shuffle(visit_order);
    const std::uint64_t pass_seed = trial * 0xabcdef123ULL + 5;

    LocalSearchSolver::Options options;
    common::ThreadPool::SetDefaultThreadCount(8);
    const exact::SearchState state(
        problem, scorer, exact::ScorePartition(problem, scorer, groups),
        exact::SearchState::Insert::kSortAll);
    const auto planned =
        exact::PlanPass(state, visit_order, pass_seed, options);
    ASSERT_EQ(planned.size(), visit_order.size());
    for (std::size_t i = 0; i < visit_order.size(); ++i) {
      const PlannedMove expected =
          ReferencePlan(problem, scorer, groups, satisfaction, group_of,
                        visit_order[i], pass_seed, options);
      SCOPED_TRACE("trial " + std::to_string(trial) + " user " +
                   std::to_string(visit_order[i]));
      EXPECT_EQ(static_cast<int>(planned[i].kind),
                static_cast<int>(expected.kind));
      EXPECT_EQ(planned[i].to, expected.to);
      EXPECT_EQ(planned[i].partner, expected.partner);
      EXPECT_EQ(planned[i].gain, expected.gain);        // bitwise
      EXPECT_EQ(planned[i].from_sat, expected.from_sat);
      EXPECT_EQ(planned[i].to_sat, expected.to_sat);
    }
  }
}

TEST_F(LocalSearchParallelTest, ObjectiveMonotoneNonDecreasingPerPass) {
  const auto matrix = data::GenerateClusteredDense(36, 18, 4, 53);
  const auto problem = Problem(matrix, /*k=*/3, /*ell=*/5);
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(greedy.ok());
  double previous = greedy->objective;
  // With a fixed seed, a run capped at p passes is a prefix of a run
  // capped at p + 1, so per-pass monotonicity is visible through the
  // public API as monotonicity in max_passes.
  for (int passes = 0; passes <= 6; ++passes) {
    LocalSearchSolver::Options options;
    options.max_passes = passes;
    const auto result = LocalSearchSolver(problem, options).Solve(17);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GE(result->objective, previous - 1e-9) << "passes=" << passes;
    EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
    previous = std::max(previous, result->objective);
  }
}

TEST_F(LocalSearchParallelTest, SingleGroupInstancePlansNoMoves) {
  const auto matrix = data::GenerateClusteredDense(12, 8, 2, 71);
  const auto problem = Problem(matrix, /*k=*/2, /*ell=*/1);
  const auto result = LocalSearchSolver(problem).Solve(17);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
  EXPECT_EQ(result->num_groups(), 1);
}

TEST_F(LocalSearchParallelTest, StaleParallelKnobsAreIgnored) {
  // The removed parallel_moves and shard_min_items keys are read by no
  // factory, so they are ignored like any unknown key.
  exact::RegisterExactSolvers();  // idempotent: duplicates are rejected
  auto& registry = core::SolverRegistry::Global();
  const auto matrix = data::GenerateClusteredDense(10, 6, 2, 73);
  const auto problem = Problem(matrix, /*k=*/2, /*ell=*/3);
  const auto stale = registry.Create(
      "localsearch", problem,
      core::SolverOptions().Set("parallel_moves", "zebra").Set(
          "shard_min_items", "zebra"));
  ASSERT_TRUE(stale.ok()) << stale.status();
  const auto solved = (*stale)->Solve(17);
  const auto plain = LocalSearchSolver(problem).Solve(17);
  ASSERT_TRUE(solved.ok()) << solved.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(solved->objective, plain->objective);  // bitwise
  ASSERT_EQ(solved->groups.size(), plain->groups.size());
  for (std::size_t g = 0; g < plain->groups.size(); ++g) {
    EXPECT_EQ(solved->groups[g].members, plain->groups[g].members);
  }
}

}  // namespace
}  // namespace groupform
