#include "exact/register_solvers.h"

#include <memory>
#include <string>

#include "core/solver_registry.h"
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
// variants, so both spellings of a solver read the same knobs. Every knob
// is strict: a value that does not parse, or lies below the smallest
// setting the solver handles or beyond its field's range, fails Create.

common::StatusOr<LocalSearchSolver::Options> MakeLocalSearchOptions(
    const SolverOptions& options) {
  LocalSearchSolver::Options opt;
  GF_RETURN_IF_ERROR(
      options.ReadCheckedInt("max_passes", 0, &opt.max_passes));
  GF_RETURN_IF_ERROR(options.ReadCheckedBool("use_swaps", &opt.use_swaps));
  GF_RETURN_IF_ERROR(
      options.ReadCheckedInt("swap_samples", 0, &opt.swap_samples));
  GF_RETURN_IF_ERROR(
      options.ReadCheckedBool("init_with_greedy", &opt.init_with_greedy));
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
  GF_RETURN_IF_ERROR(options.ReadCheckedDouble("cooling", &opt.cooling));
  // The cooling step runs every `cooling_interval` proposals: 0 would
  // divide by zero.
  GF_RETURN_IF_ERROR(options.ReadCheckedInt("cooling_interval", 1,
                                            &opt.cooling_interval));
  GF_RETURN_IF_ERROR(
      options.ReadCheckedDouble("swap_fraction", &opt.swap_fraction));
  GF_RETURN_IF_ERROR(
      options.ReadCheckedBool("init_with_greedy", &opt.init_with_greedy));
  return opt;
}

// Registers `name` and "anytime:<name>" (DESIGN.md §17.4) over one
// iterative solver. The anytime name builds the same solver with its
// deadline_ms wall-clock budget armed; the serving layer keys its
// partial-result policy on the name's prefix. deadline_ms is
// strict-parsed: a malformed or negative budget must fail Create, never
// silently run unbounded.
template <typename Solver, typename MakeOptions>
void RegisterIterative(SolverRegistry& registry, const std::string& name,
                       const char* description,
                       const char* anytime_description,
                       MakeOptions make_options) {
  (void)registry.Register(
      name, description,
      [make_options](const FormationProblem& problem,
                     const SolverOptions& options) -> SolverOr {
        GF_ASSIGN_OR_RETURN(auto opt, make_options(options));
        return SolverOr(std::make_unique<Solver>(problem, opt));
      });
  (void)registry.Register(
      "anytime:" + name, anytime_description,
      [make_options](const FormationProblem& problem,
                     const SolverOptions& options) -> SolverOr {
        GF_ASSIGN_OR_RETURN(auto opt, make_options(options));
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("deadline_ms", -1, &opt.deadline_ms));
        return SolverOr(std::make_unique<Solver>(problem, opt));
      });
}

}  // namespace

void RegisterExactSolvers() {
  SolverRegistry& registry = SolverRegistry::Global();

  (void)registry.Register(
      "exact", "OPT — provably optimal subset DP (small instances only)",
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        SubsetDpSolver::Options opt;
        GF_ASSIGN_OR_RETURN(
            opt.max_users,
            options.GetCheckedInt("max_users", opt.max_users, 0,
                                  SubsetDpSolver::kMaxUsersCeiling));
        return SolverOr(std::make_unique<SubsetDpSolver>(problem, opt));
      });

  (void)registry.Register(
      "brute",
      "exhaustive set-partition enumeration (tiny instances; test oracle)",
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        BruteForceSolver::Options opt;
        GF_ASSIGN_OR_RETURN(
            opt.max_users,
            options.GetCheckedInt("max_users", opt.max_users, 0,
                                  BruteForceSolver::kMaxUsersCeiling));
        return SolverOr(std::make_unique<BruteForceSolver>(problem, opt));
      });

  (void)registry.Register(
      "bnb",
      "BNB — exact branch and bound with greedy incumbent (small instances)",
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

  RegisterIterative<LocalSearchSolver>(
      registry, "localsearch",
      "OPT* — greedy-seeded hill climbing, the scalable optimal reference",
      "anytime OPT* — hill climbing under a deadline_ms budget; expiry "
      "returns the best-so-far partition with partial=true",
      MakeLocalSearchOptions);
  RegisterIterative<SimulatedAnnealingSolver>(
      registry, "sa",
      "SA — greedy-seeded simulated annealing (Metropolis search)",
      "anytime SA — annealing under a deadline_ms budget; expiry returns "
      "the best state seen with partial=true",
      MakeSaOptions);
}

}  // namespace groupform::exact
