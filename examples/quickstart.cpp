// Quickstart: run every greedy group-formation algorithm on the paper's
// 6-user running example (Table 1), compare with the provable optimum,
// then sweep every registered solver through the SolverRegistry.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "core/formation.h"
#include "core/greedy.h"
#include "core/solver_registry.h"
#include "data/paper_examples.h"
#include "exact/subset_dp.h"
#include "grouprec/semantics.h"
#include "solvers/builtin.h"

int main() {
  using namespace groupform;

  const data::RatingMatrix matrix = data::PaperExample1();
  std::printf("Population: %d users, %d items (paper Table 1)\n\n",
              matrix.num_users(), matrix.num_items());

  for (const auto semantics : {grouprec::Semantics::kLeastMisery,
                               grouprec::Semantics::kAggregateVoting}) {
    for (const auto aggregation :
         {grouprec::Aggregation::kMax, grouprec::Aggregation::kMin,
          grouprec::Aggregation::kSum}) {
      core::FormationProblem problem;
      problem.matrix = &matrix;
      problem.semantics = semantics;
      problem.aggregation = aggregation;
      problem.k = 2;
      problem.max_groups = 3;

      const auto greedy = core::RunGreedy(problem);
      if (!greedy.ok()) {
        std::fprintf(stderr, "greedy failed: %s\n",
                     greedy.status().ToString().c_str());
        return 1;
      }
      const auto optimal = exact::SubsetDpSolver(problem).Solve(0);
      if (!optimal.ok()) {
        std::fprintf(stderr, "optimal failed: %s\n",
                     optimal.status().ToString().c_str());
        return 1;
      }
      std::printf("== %s ==\n", problem.ToString().c_str());
      std::printf("%s", greedy->ToString().c_str());
      std::printf("  optimum (subset DP): %.2f  (greedy gap: %.2f)\n\n",
                  optimal->objective,
                  optimal->objective - greedy->objective);
    }
  }

  // Every solver family through the one registry the CLI and the
  // experiment harness also dispatch through (DESIGN.md §10.1).
  solvers::EnsureBuiltinSolversRegistered();
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 2;
  problem.max_groups = 3;
  std::printf("== every registered solver on %s ==\n",
              problem.ToString().c_str());
  auto& registry = core::SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const auto solver = registry.Create(name, problem);
    if (!solver.ok()) continue;
    const auto result =
        (*solver)->Solve(core::FormationSolver::kDefaultSeed);
    if (!result.ok()) {
      std::printf("  %-12s %s\n", name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("  %-12s objective %.2f in %d groups  (%s)\n", name.c_str(),
                result->objective, result->num_groups(),
                result->algorithm.c_str());
  }
  return 0;
}
