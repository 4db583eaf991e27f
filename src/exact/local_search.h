#ifndef GROUPFORM_EXACT_LOCAL_SEARCH_H_
#define GROUPFORM_EXACT_LOCAL_SEARCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::exact {

class SearchState;

/// Hill-climbing refinement over full partitions: starting from the greedy
/// solution (or a random ell-way split), each pass plans the best
/// single-user relocation — or optionally a sampled two-user swap — for
/// every user against the pass-start partition, batch-evaluating the
/// candidates on common::ThreadPool::Shared(), then applies the planned
/// moves serially in visit order (skipping moves whose groups an earlier
/// application already touched). Passes repeat until none improves.
///
/// Role: the paper calibrates its greedy algorithms against a CPLEX IP
/// that "does not complete in a reasonable time beyond 200 users, 100
/// items, and 10 groups". We use the subset-DP solver for provable optima
/// on small instances and this local search as the strong reference at the
/// paper's 200-user calibration scale (labelled OPT* in the benchmarks).
/// Its objective is by construction >= the greedy seed's.
class LocalSearchSolver : public core::FormationSolver {
 public:
  struct Options {
    /// Maximum improvement passes. A pass applies at most
    /// floor(max_groups / 2) moves (each applied move retires its two
    /// groups for the rest of the pass), so this budget is deliberately
    /// larger than the serial first-improvement climber's old default of
    /// 40: runs stop at the first pass with no improving candidate, so
    /// the cap only binds while progress continues.
    int max_passes = 200;
    /// Also try swapping each user with sampled members of other groups.
    bool use_swaps = true;
    /// Swap candidates sampled per (user, other-group) pair.
    int swap_samples = 1;
    /// Seed the initial partition with the greedy solution; otherwise a
    /// seeded random balanced split is used.
    bool init_with_greedy = true;
    /// Warm start (core::kStartAssignmentKey, DESIGN.md §13): when
    /// non-empty, a partition of *all* users into at most max_groups
    /// groups — typically a previous epoch's solution carried over by
    /// core::AdaptAssignment. With init_with_greedy the run scores both
    /// this partition and the greedy seed and climbs from whichever is
    /// better (ties keep the warm start); without it the warm partition
    /// replaces the random split. The rng is untouched either way, so a
    /// warm run whose greedy seed wins is byte-identical to a cold run.
    /// INVALID_ARGUMENT if it is not an exact partition of the users.
    std::vector<std::vector<UserId>> start_assignment;
    /// Minimum objective gain for a move to be applied.
    double min_improvement = 1e-9;
    /// Anytime budget (DESIGN.md §17.4): >= 0 arms a wall-clock deadline
    /// in milliseconds, checked at each pass boundary. On expiry the run
    /// returns its best-so-far partition with FormationResult::partial =
    /// true instead of climbing further — the pass-boundary state is
    /// monotone in the objective, so every snapshot dominates the ones
    /// before it. -1 (the default) never expires; a 0 budget
    /// deterministically returns the seed partition (partial) before the
    /// first pass. The `anytime:localsearch` registry name reads it from
    /// the deadline_ms option.
    long long deadline_ms = -1;
  };

  /// One user's planned move for a pass, evaluated against the pass-start
  /// partition. kNone when no candidate clears min_improvement.
  struct PlannedMove {
    enum class Kind { kNone, kRelocate, kSwap };
    Kind kind = Kind::kNone;
    /// Target group (relocation destination / swap partner's group).
    int to = -1;
    /// The member of `to` exchanged with the user (kSwap only).
    UserId partner = kInvalidUser;
    /// Objective delta of applying the move to the pass-start partition.
    double gain = 0.0;
    /// Satisfaction of the user's source group after the move.
    double from_sat = 0.0;
    /// Satisfaction of group `to` after the move.
    double to_sat = 0.0;
  };

  explicit LocalSearchSolver(const core::FormationProblem& problem)
      : LocalSearchSolver(problem, Options()) {}
  LocalSearchSolver(const core::FormationProblem& problem, Options options)
      : problem_(problem), options_(options) {}

  /// `seed` drives the random split (without init_with_greedy), the
  /// visit order and swap sampling.
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t seed) const override;

 private:
  core::FormationProblem problem_;
  Options options_;
};

/// The RNG stream driving user `u`'s swap sampling within one pass.
/// Derived from (pass_seed, u) only — never from which thread evaluates
/// the candidate or in what order — so planning is schedule-independent.
common::Rng SwapRngForUser(std::uint64_t pass_seed, UserId u);

/// Plans the best move for every user of `visit_order` against the
/// pass-start partition in `state` (built with SearchState::Insert::
/// kSortAll), batch-evaluating users on the shared pool. Slot i of the
/// result is the move for visit_order[i]. Relocations are preferred over
/// swaps (a swap is only planned when no relocation improves); exposed so
/// tests can pin the parallel plan against an independent serial
/// implementation (tests/exact/local_search_parallel_test.cc).
std::vector<LocalSearchSolver::PlannedMove> PlanPass(
    const SearchState& state, std::span<const UserId> visit_order,
    std::uint64_t pass_seed, const LocalSearchSolver::Options& options);

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_LOCAL_SEARCH_H_
