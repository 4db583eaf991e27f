#ifndef GROUPFORM_EVAL_EXPERIMENT_H_
#define GROUPFORM_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::eval {

/// The paper display label (§7 "Algorithms Compared") for a registry
/// name ("greedy" -> "GRD", "localsearch" -> "OPT*"); names the paper
/// never printed (including runtime-registered solvers) display as
/// themselves. Labels are presentation only — nothing dispatches on
/// them; every surface runs solvers by registry name.
std::string SolverDisplayLabel(const std::string& registry_name);

/// Canonical column order for sweeps and reports: the paper's families
/// first (greedy, baseline, veckmeans, localsearch, sa, exact, bnb,
/// brute), then any other names alphabetically. Duplicates are kept.
std::vector<std::string> OrderSolversForDisplay(
    std::vector<std::string> names);

/// One algorithm execution: the solution plus its wall-clock cost.
struct RunOutcome {
  core::FormationResult result;
  double seconds = 0.0;
};

/// Runs the registry solver `name` on `problem`, timing the whole
/// formation (group creation plus per-group top-k recommendation, as the
/// paper measures). `options` overrides individual solver knobs by key.
/// NOT_FOUND when no such solver is registered.
common::StatusOr<RunOutcome> RunAlgorithmByName(
    const std::string& name, const core::FormationProblem& problem,
    std::uint64_t seed = core::FormationSolver::kDefaultSeed,
    const core::SolverOptions& options = core::SolverOptions());

/// Averages `repetitions` runs with distinct seeds (the paper reports
/// every number as "the average of three runs"). Repetitions are
/// independent, so they run in parallel on common::ThreadPool::Shared();
/// per-repetition seeds derive from the repetition index and aggregation
/// happens serially in index order, so every *result* field
/// (mean_objective, last_result) is identical at every thread count
/// (DESIGN.md §10.3). mean_seconds is the exception: it is per-run wall
/// clock, and at --threads > 1 concurrent repetitions contend for cores,
/// inflating it — time algorithms at --threads 1 (as the serial
/// fig4/5/6 timing benches do).
struct RepeatedOutcome {
  double mean_objective = 0.0;
  /// Mean per-repetition wall clock; contention-inflated when
  /// repetitions run concurrently. Not covered by the determinism
  /// contract.
  double mean_seconds = 0.0;
  /// The last run's full result (for inspection of groups).
  core::FormationResult last_result;
};
common::StatusOr<RepeatedOutcome> RunRepeated(
    const std::string& name, const core::FormationProblem& problem,
    int repetitions,
    std::uint64_t seed_base = core::FormationSolver::kDefaultSeed,
    const core::SolverOptions& options = core::SolverOptions());

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_EXPERIMENT_H_
