// The anytime-solve contract (DESIGN.md §17.4): a deadline_ms budget on
// the iterative refiners returns the best-so-far partition marked
// partial=true instead of failing — a 0 budget deterministically yields
// the (greedy) seed snapshot before any refinement, no budget yields a
// run byte-identical to the plain solver, and the pass-boundary
// snapshots are monotone in the objective, so every answer an expiring
// deadline can surface dominates the earlier ones.
#include <gtest/gtest.h>

#include <vector>

#include "core/formation.h"
#include "core/greedy.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "exact/local_search.h"
#include "exact/register_solvers.h"
#include "exact/simulated_annealing.h"
#include "grouprec/semantics.h"

namespace groupform {
namespace {

using core::FormationProblem;
using core::FormationResult;
using exact::LocalSearchSolver;
using exact::SimulatedAnnealingSolver;

FormationProblem Problem(const data::RatingMatrix& matrix) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 3;
  problem.max_groups = 5;
  return problem;
}

void ExpectIdentical(const FormationResult& a, const FormationResult& b) {
  EXPECT_EQ(a.objective, b.objective);  // bitwise
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.refine_passes, b.refine_passes);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].members, b.groups[g].members) << "group " << g;
    EXPECT_EQ(a.groups[g].recommendation.items,
              b.groups[g].recommendation.items);
  }
}

TEST(AnytimeContract, ZeroBudgetReturnsGreedySeedPartial) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(60, 30, /*seed=*/811));
  const auto problem = Problem(matrix);
  LocalSearchSolver::Options options;
  options.deadline_ms = 0;
  const auto result = LocalSearchSolver(problem, options).Solve(17);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->refine_passes, 0);
  // The snapshot is the greedy seed — not some half-applied pass. The
  // objective is recomputed through the same scorer, so it matches
  // RunGreedy to rounding.
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(greedy.ok());
  EXPECT_NEAR(result->objective, greedy->objective, 1e-9);
  EXPECT_NEAR(core::RecomputeObjective(problem, *result), result->objective,
              1e-9);
}

TEST(AnytimeContract, NoBudgetIsByteIdenticalToThePlainSolver) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(50, 30, /*seed=*/813));
  const auto problem = Problem(matrix);
  LocalSearchSolver::Options unlimited;
  unlimited.deadline_ms = -1;
  const auto armed = LocalSearchSolver(problem, unlimited).Solve(7);
  const auto plain = LocalSearchSolver(problem).Solve(7);
  ASSERT_TRUE(armed.ok()) << armed.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(armed->partial);
  ExpectIdentical(*armed, *plain);
}

TEST(AnytimeContract, PassSnapshotsAreMonotoneInTheObjective) {
  // max_passes caps the run at exactly the pass boundaries the deadline
  // can fire on, so the sequence of capped objectives IS the sequence of
  // snapshots an expiring budget could return — it must never regress.
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(60, 30, /*seed=*/815));
  const auto problem = Problem(matrix);
  double previous = -1.0;
  for (const int passes : {0, 1, 2, 3, 200}) {
    LocalSearchSolver::Options options;
    options.max_passes = passes;
    const auto result = LocalSearchSolver(problem, options).Solve(7);
    ASSERT_TRUE(result.ok()) << "passes=" << passes << ": "
                             << result.status();
    EXPECT_GE(result->objective, previous - 1e-12) << "passes=" << passes;
    previous = result->objective;
  }
}

TEST(AnytimeContract, SimulatedAnnealingZeroBudgetReturnsSeedPartial) {
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(40, 25, /*seed=*/817));
  const auto problem = Problem(matrix);
  SimulatedAnnealingSolver::Options options;
  options.deadline_ms = 0;
  const auto result = SimulatedAnnealingSolver(problem, options).Solve(5);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->partial);
  // init_with_greedy (the default) seeds from greedy; with zero budget
  // no proposal is ever evaluated, so the best-ever state is the seed.
  const auto greedy = core::RunGreedy(problem);
  ASSERT_TRUE(greedy.ok());
  EXPECT_NEAR(result->objective, greedy->objective, 1e-9);
}

TEST(AnytimeContract, AnytimeNameBuildsTheSolverWithItsDeadlineArmed) {
  // "anytime:localsearch" builds localsearch with the deadline_ms option
  // read into Options::deadline_ms.
  exact::RegisterExactSolvers();  // idempotent: duplicates are rejected
  const auto matrix = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(40, 25, /*seed=*/819));
  const auto problem = Problem(matrix);
  const auto created = core::SolverRegistry::Global().Create(
      "anytime:localsearch", problem,
      core::SolverOptions().Set("deadline_ms", "0"));
  ASSERT_TRUE(created.ok()) << created.status();
  const auto via_registry = (*created)->Solve(7);
  LocalSearchSolver::Options options;
  options.deadline_ms = 0;
  const auto direct = LocalSearchSolver(problem, options).Solve(7);
  ASSERT_TRUE(via_registry.ok()) << via_registry.status();
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_TRUE(via_registry->partial);
  ExpectIdentical(*via_registry, *direct);
}

}  // namespace
}  // namespace groupform
