#include "eval/experiment.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "solvers/builtin.h"

namespace groupform::eval {

std::string SolverDisplayLabel(const std::string& registry_name) {
  // Every key is a registered solver; the drift test in
  // experiment_test.cc pins the table against the registry.
  static const std::map<std::string, std::string> kLabels = {
      {"greedy", "GRD"},       {"baseline", "Baseline"},
      {"exact", "OPT"},        {"localsearch", "OPT*"},
      {"sa", "SA"},            {"bnb", "BNB"},
      {"veckmeans", "VecKMeans"}, {"brute", "Brute"},
  };
  const auto it = kLabels.find(registry_name);
  return it == kLabels.end() ? registry_name : it->second;
}

std::vector<std::string> OrderSolversForDisplay(
    std::vector<std::string> names) {
  // The paper's column order (contribution, baselines, optimal
  // references), then everything the paper never heard of alphabetically.
  static const char* const kPaperOrder[] = {
      "greedy", "baseline", "veckmeans", "localsearch",
      "sa",     "exact",    "bnb",       "brute"};
  std::vector<std::string> ordered;
  ordered.reserve(names.size());
  for (const char* known : kPaperOrder) {
    for (const auto& name : names) {
      if (name == known) ordered.push_back(name);
    }
  }
  std::vector<std::string> rest;
  for (const auto& name : names) {
    if (std::find(std::begin(kPaperOrder), std::end(kPaperOrder), name) ==
        std::end(kPaperOrder)) {
      rest.push_back(name);
    }
  }
  std::sort(rest.begin(), rest.end());
  ordered.insert(ordered.end(), rest.begin(), rest.end());
  return ordered;
}

common::StatusOr<RunOutcome> RunAlgorithmByName(
    const std::string& name, const core::FormationProblem& problem,
    std::uint64_t seed, const core::SolverOptions& options) {
  solvers::EnsureBuiltinSolversRegistered();
  common::Stopwatch stopwatch;
  GF_ASSIGN_OR_RETURN(
      auto solver,
      core::SolverRegistry::Global().Create(name, problem, options));
  GF_ASSIGN_OR_RETURN(auto result, solver->Solve(seed));
  RunOutcome outcome;
  outcome.result = std::move(result);
  outcome.seconds = stopwatch.ElapsedSeconds();
  return outcome;
}

common::StatusOr<RepeatedOutcome> RunRepeated(
    const std::string& name, const core::FormationProblem& problem,
    int repetitions, std::uint64_t seed_base,
    const core::SolverOptions& options) {
  // Each repetition's seed depends only on its index, and each writes its
  // own slot; the serial reduction below then reads the slots in index
  // order — the same floating-point operation order as the old serial
  // loop, which is what makes the mean byte-identical at any thread count.
  std::vector<common::StatusOr<RunOutcome>> outcomes(
      static_cast<std::size_t>(repetitions < 0 ? 0 : repetitions),
      common::Status::Internal("repetition not run"));
  common::ThreadPool::Shared().ParallelFor(
      repetitions, [&](std::int64_t rep) {
        outcomes[static_cast<std::size_t>(rep)] = RunAlgorithmByName(
            name, problem,
            seed_base + static_cast<std::uint64_t>(rep) * 7919, options);
      });
  RepeatedOutcome out;
  for (auto& outcome : outcomes) {
    if (!outcome.ok()) return outcome.status();
    out.mean_objective += outcome->result.objective;
    out.mean_seconds += outcome->seconds;
  }
  if (repetitions > 0) {
    out.mean_objective /= repetitions;
    out.mean_seconds /= repetitions;
    out.last_result = std::move(outcomes.back()->result);
  }
  return out;
}

}  // namespace groupform::eval
