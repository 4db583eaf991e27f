#include "exact/register_solvers.h"

#include <memory>

#include "core/solver_registry.h"
#include "exact/anytime.h"
#include "exact/branch_and_bound.h"
#include "exact/local_search.h"
#include "exact/simulated_annealing.h"
#include "exact/subset_dp.h"

namespace groupform::exact {

using core::FormationProblem;
using core::FormationSolver;
using core::SolverOptions;
using core::SolverRegistry;
using SolverOr = common::StatusOr<std::unique_ptr<FormationSolver>>;

namespace {

// Option builders shared by the plain registrations and their "anytime:"
// variants, so both spellings of a solver read the same knobs. Integer
// knobs are strict: a value that does not parse, or lies below the
// smallest setting the solver handles or beyond its field's range, fails
// Create.

common::StatusOr<LocalSearchSolver::Options> MakeLocalSearchOptions(
    const SolverOptions& options) {
  LocalSearchSolver::Options opt;
  GF_RETURN_IF_ERROR(
      options.ReadCheckedInt("max_passes", 0, &opt.max_passes));
  opt.use_swaps = options.GetBool("use_swaps", opt.use_swaps);
  GF_RETURN_IF_ERROR(
      options.ReadCheckedInt("swap_samples", 0, &opt.swap_samples));
  opt.init_with_greedy =
      options.GetBool("init_with_greedy", opt.init_with_greedy);
  // Warm starts are validated at registry-lookup time: a malformed
  // start_assignment encoding fails Create, and the solver itself
  // rejects partitions that do not cover the instance.
  GF_ASSIGN_OR_RETURN(opt.start_assignment, options.GetStartAssignment());
  return opt;
}

common::StatusOr<SimulatedAnnealingSolver::Options> MakeSaOptions(
    const SolverOptions& options) {
  SimulatedAnnealingSolver::Options opt;
  GF_RETURN_IF_ERROR(
      options.ReadCheckedInt("iterations", 0, &opt.iterations));
  opt.cooling = options.GetDouble("cooling", opt.cooling);
  // The cooling step runs every `cooling_interval` proposals: 0 would
  // divide by zero.
  GF_RETURN_IF_ERROR(options.ReadCheckedInt("cooling_interval", 1,
                                            &opt.cooling_interval));
  opt.swap_fraction = options.GetDouble("swap_fraction", opt.swap_fraction);
  opt.init_with_greedy =
      options.GetBool("init_with_greedy", opt.init_with_greedy);
  return opt;
}

// Registers "anytime:<inner>" (DESIGN.md §17.4): the same solver with a
// deadline_ms wall-clock budget armed, wrapped so the registry name
// carries the prefix the serving layer keys its partial-result policy on.
// deadline_ms is strict-parsed: a malformed or negative budget must fail
// Create, never silently run unbounded.
template <typename Solver, typename MakeOptions>
void RegisterAnytime(SolverRegistry& registry, const char* description,
                     MakeOptions make_options) {
  const std::string name = std::string("anytime:") + Solver::kRegistryName;
  (void)registry.Register(
      name, description,
      [make_options](const FormationProblem& problem,
                     const SolverOptions& options) -> SolverOr {
        GF_ASSIGN_OR_RETURN(auto opt, make_options(options));
        GF_ASSIGN_OR_RETURN(
            long long deadline,
            options.GetCheckedInt("deadline_ms", /*fallback=*/-1,
                                  /*min_value=*/-1));
        opt.deadline_ms = deadline;
        return SolverOr(std::make_unique<AnytimeSolver>(
            std::make_unique<Solver>(problem, opt)));
      });
}

}  // namespace

void RegisterExactSolvers() {
  SolverRegistry& registry = SolverRegistry::Global();

  (void)registry.Register(
      SubsetDpSolver::kRegistryName, SubsetDpSolver::kSolverDescription,
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        SubsetDpSolver::Options opt;
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("max_users", 0, &opt.max_users));
        return SolverOr(std::make_unique<SubsetDpSolver>(problem, opt));
      });

  (void)registry.Register(
      BruteForceSolver::kRegistryName, BruteForceSolver::kSolverDescription,
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        BruteForceSolver::Options opt;
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("max_users", 0, &opt.max_users));
        return SolverOr(std::make_unique<BruteForceSolver>(problem, opt));
      });

  (void)registry.Register(
      BranchAndBoundSolver::kRegistryName,
      BranchAndBoundSolver::kSolverDescription,
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        BranchAndBoundSolver::Options opt;
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("max_users", 0, &opt.max_users));
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("max_nodes", 0, &opt.max_nodes));
        return SolverOr(
            std::make_unique<BranchAndBoundSolver>(problem, opt));
      });

  (void)registry.Register(
      LocalSearchSolver::kRegistryName, LocalSearchSolver::kSolverDescription,
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        GF_ASSIGN_OR_RETURN(auto opt, MakeLocalSearchOptions(options));
        return SolverOr(std::make_unique<LocalSearchSolver>(problem, opt));
      });

  (void)registry.Register(
      SimulatedAnnealingSolver::kRegistryName,
      SimulatedAnnealingSolver::kSolverDescription,
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        GF_ASSIGN_OR_RETURN(auto opt, MakeSaOptions(options));
        return SolverOr(
            std::make_unique<SimulatedAnnealingSolver>(problem, opt));
      });

  RegisterAnytime<LocalSearchSolver>(
      registry,
      "anytime OPT* — hill climbing under a deadline_ms budget; expiry "
      "returns the best-so-far partition with partial=true",
      MakeLocalSearchOptions);
  RegisterAnytime<SimulatedAnnealingSolver>(
      registry,
      "anytime SA — annealing under a deadline_ms budget; expiry returns "
      "the best state seen with partial=true",
      MakeSaOptions);
}

}  // namespace groupform::exact
