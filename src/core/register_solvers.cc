// Registers the core layer's solvers with the global SolverRegistry. The
// exact and baseline layers each have their own register_solvers.cc; the
// solvers umbrella library calls all of them exactly once.
#include <memory>
#include <utility>

#include "core/constrained.h"
#include "core/greedy.h"
#include "core/solver_registry.h"

namespace groupform::core {

void RegisterCoreSolvers() {
  // Duplicate registration (e.g. a test calling this directly after the
  // umbrella init already ran) is benign: the first registration wins.
  (void)SolverRegistry::Global().Register(
      "greedy",
      "GRD greedy bucket formation (§4–§5), the paper's contribution",
      [](const FormationProblem& problem, const SolverOptions&) {
        return common::StatusOr<std::unique_ptr<FormationSolver>>(
            std::make_unique<GreedyFormer>(problem));
      });
  // The constrained family: one solver class, three registry names. Each
  // reads FormationProblem::constraints at Solve time, so an empty spec
  // runs like plain greedy and the registry-wide determinism matrix pins
  // the family with no extra plumbing.
  using Member = ConstrainedGreedySolver::Member;
  constexpr std::pair<Member, const char*> kConstrained[] = {
      {Member::kCap,
       "size-constrained greedy: GRD seed + split/rebalance/merge repair "
       "(constraints: size bounds)"},
      {Member::kPair,
       "link-aware greedy: must-link atoms, cannot-link repulsion, "
       "atom-aware size repair (constraints: sizes + link pairs)"},
      {Member::kFair,
       "fairness-floor greedy: link-aware pipeline + per-user floor "
       "relocation, residual violations reported (full ConstraintSpec)"},
  };
  for (const auto& [member, description] : kConstrained) {
    (void)SolverRegistry::Global().Register(
        ConstrainedGreedySolver::RegistryName(member), description,
        [member](const FormationProblem& problem, const SolverOptions&) {
          return common::StatusOr<std::unique_ptr<FormationSolver>>(
              std::make_unique<ConstrainedGreedySolver>(problem, member));
        });
  }
}

}  // namespace groupform::core
