#ifndef GROUPFORM_EXACT_BRANCH_AND_BOUND_H_
#define GROUPFORM_EXACT_BRANCH_AND_BOUND_H_

#include <cstdint>

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::exact {

/// Exact solver by depth-first branch-and-bound over restricted-growth
/// assignments: user u joins one of the groups opened so far or opens a
/// new one (while fewer than ell are open). Prunes with an admissible
/// optimistic bound on the unassigned suffix:
///
///   * each unassigned user can contribute at most their *solo* score
///     (their personal top-k aggregated) by opening a new group — under
///     both semantics a user's marginal contribution to any group never
///     exceeds what they achieve alone (LM: joining can only lower or
///     keep scores; AV: a member adds at most their own ratings of the
///     list);
///   * at most (ell - open_groups) new groups can still open, so only the
///     best that many solo scores count for LM; under AV every user's
///     solo score counts (they may join existing groups additively).
///
/// The incumbent starts from the greedy solution, which both tightens
/// pruning immediately and guarantees the result is never worse than
/// greedy even if the node budget is exhausted (the solver then reports
/// the incumbent with `proved_optimal = false` in the result's algorithm
/// tag "BNB*" instead of "BNB").
///
/// Practical to ~18-22 users depending on structure; cross-validated
/// against SubsetDpSolver in tests.
class BranchAndBoundSolver : public core::FormationSolver {
 public:
  struct Options {
    int max_users = 22;
    /// Node expansion budget; 0 = unlimited.
    std::int64_t max_nodes = 50'000'000;
  };

  explicit BranchAndBoundSolver(const core::FormationProblem& problem)
      : BranchAndBoundSolver(problem, Options()) {}
  BranchAndBoundSolver(const core::FormationProblem& problem,
                       Options options)
      : problem_(problem), options_(options) {}

  /// The search is deterministic: the seed is ignored.
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t) const override;

 private:
  core::FormationProblem problem_;
  Options options_;
};

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_BRANCH_AND_BOUND_H_
