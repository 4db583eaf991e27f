#ifndef GROUPFORM_EXACT_SUBSET_DP_H_
#define GROUPFORM_EXACT_SUBSET_DP_H_

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::exact {

/// Provably optimal group formation by dynamic programming over user
/// subsets: f[j][mask] = best objective partitioning `mask` into at most j
/// groups, with transitions over submasks containing mask's lowest bit.
///
/// This is the library's optimal reference for the §2.4 objective — the
/// role the paper's experiments give the Appendix-A integer program solved
/// with CPLEX (§7.1 "optimal algorithm"): calibrating the greedy family's
/// Theorem 2/3 error bounds on small instances (see DESIGN.md §4.1c and
/// tests/core/error_bound_property_test.cc). Group scores are always
/// evaluated over the full catalogue, regardless of the problem's
/// candidate_depth, so the returned objective is the true optimum of the
/// stated objective.
///
/// Cost: O(2^n) group-score evaluations plus O(ell * 3^n / 2) DP
/// transitions — practical to max_users (default 16).
class SubsetDpSolver : public core::FormationSolver {
 public:
  /// The ceiling of max_users. At n users the score and DP tables hold
  /// 2^n x (8 + 12 (min(ell, n) + 1)) bytes, at most 273 MB at n = 20;
  /// past 32 users the 32-bit subset masks would wrap.
  static constexpr int kMaxUsersCeiling = 20;

  struct Options {
    /// Hard cap on population size, at most kMaxUsersCeiling; larger
    /// instances fail with RESOURCE_EXHAUSTED instead of silently running
    /// for hours.
    int max_users = 16;
  };

  explicit SubsetDpSolver(const core::FormationProblem& problem)
      : SubsetDpSolver(problem, Options()) {}
  SubsetDpSolver(const core::FormationProblem& problem, Options options)
      : problem_(problem), options_(options) {}

  /// Returns an optimal partition of the §2.4 instance (groups in
  /// reconstruction order); the objective is Obj(OPT) in Theorems 2/3.
  /// The DP is deterministic: the seed is ignored.
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t) const override;

 private:
  core::FormationProblem problem_;
  Options options_;
};

/// Exhaustive set-partition enumeration (restricted-growth strings),
/// practical to ~10 users. Exists to cross-validate SubsetDpSolver in
/// tests; prefer SubsetDpSolver everywhere else.
class BruteForceSolver : public core::FormationSolver {
 public:
  /// The ceiling of max_users. The partition count grows like the Bell
  /// numbers, about 7x per user: through `groupform_serverd --pipe` on
  /// one thread (Release build, 4-vCPU VM), a dense 6-item instance
  /// (k=2, ell=8) took 0.17 s at 10 users, 1.1 s at 11, 7.2 s at 12 and
  /// 51 s at 13.
  static constexpr int kMaxUsersCeiling = 12;

  struct Options {
    /// Hard cap on population size, at most kMaxUsersCeiling.
    int max_users = 10;
  };

  explicit BruteForceSolver(const core::FormationProblem& problem)
      : BruteForceSolver(problem, Options()) {}
  BruteForceSolver(const core::FormationProblem& problem, Options options)
      : problem_(problem), options_(options) {}

  /// Enumeration is deterministic: the seed is ignored.
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t) const override;

 private:
  core::FormationProblem problem_;
  Options options_;
};

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_SUBSET_DP_H_
