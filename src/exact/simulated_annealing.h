#ifndef GROUPFORM_EXACT_SIMULATED_ANNEALING_H_
#define GROUPFORM_EXACT_SIMULATED_ANNEALING_H_

#include <cstdint>

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::exact {

/// Simulated-annealing solver: the metaheuristic the team-formation
/// literature the paper surveys (§8, [7]) applies to assignment problems,
/// ported to recommendation-aware group formation. Complements
/// LocalSearchSolver: annealing accepts uphill *and* downhill moves early
/// (Metropolis criterion over a geometric temperature schedule), so it can
/// escape the local optima pure hill climbing gets stuck in, at the cost
/// of more evaluations.
///
/// Moves: relocate a random user to a random (possibly empty) group, or
/// swap two random users from different groups. The best state ever seen
/// is returned, so the result is never worse than the greedy seed.
class SimulatedAnnealingSolver : public core::FormationSolver {
 public:
  struct Options {
    /// Proposals evaluated in total.
    int iterations = 20000;
    /// Initial temperature as a fraction of the seed objective (a move
    /// losing this much is accepted with probability e^-1 at the start).
    double initial_temperature_fraction = 0.05;
    /// Geometric cooling factor applied every `cooling_interval` steps.
    double cooling = 0.95;
    int cooling_interval = 200;
    /// Fraction of proposals that are swaps (the rest are relocations).
    double swap_fraction = 0.35;
    /// Seed the start state from the greedy solution (else random split).
    bool init_with_greedy = true;
    /// Anytime budget (DESIGN.md §17.4): >= 0 arms a wall-clock deadline
    /// in milliseconds, checked at every proposal. On expiry the run
    /// returns the best state ever seen with FormationResult::partial =
    /// true — the best-ever snapshot is monotone by construction. -1
    /// (the default) never expires; a 0 budget deterministically returns
    /// the seed state (partial) before the first proposal. The
    /// `anytime:sa` registry name reads it from the deadline_ms option.
    long long deadline_ms = -1;
  };

  explicit SimulatedAnnealingSolver(const core::FormationProblem& problem)
      : SimulatedAnnealingSolver(problem, Options()) {}
  SimulatedAnnealingSolver(const core::FormationProblem& problem,
                           Options options)
      : problem_(problem), options_(options) {}

  /// `seed` drives the random split (without init_with_greedy), move
  /// proposals and the Metropolis draws.
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t seed) const override;

 private:
  core::FormationProblem problem_;
  Options options_;
};

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_SIMULATED_ANNEALING_H_
