#include "exact/simulated_annealing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exact/move_evaluator.h"

namespace groupform::exact {

using core::FormationResult;

common::StatusOr<FormationResult> SimulatedAnnealingSolver::Solve(
    std::uint64_t seed) const {
  const auto started = std::chrono::steady_clock::now();
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  const int ell = problem_.max_groups;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  common::Rng rng(seed);

  GF_ASSIGN_OR_RETURN(
      ScoredPartition start,
      SeedPartition(problem_, scorer, options_.init_with_greedy, rng));
  // Scores every proposal and applies the accepted ones.
  SearchState state(problem_, scorer, std::move(start),
                    SearchState::Insert::kLowerBound);
  const std::span<const std::vector<UserId>> groups = state.groups();
  const std::span<const double> scores = state.satisfaction();

  // Best-ever snapshot.
  std::vector<std::vector<UserId>> best_groups(groups.begin(), groups.end());
  double best_objective = state.objective();

  double temperature = std::max(state.objective(), 1.0) *
                       options_.initial_temperature_fraction;
  const auto accept = [&](double delta) {
    if (delta >= 0.0) return true;
    if (temperature <= 1e-12) return false;
    return rng.NextDouble() < std::exp(delta / temperature);
  };

  bool partial = false;
  for (int step = 0; step < options_.iterations; ++step) {
    // Anytime contract (DESIGN.md §17.4): an expired budget returns the
    // best-ever snapshot as a partial result instead of failing.
    if (options_.deadline_ms >= 0 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
                .count() >= options_.deadline_ms) {
      partial = true;
      break;
    }
    if (step > 0 && step % options_.cooling_interval == 0) {
      temperature *= options_.cooling;
    }
    const UserId u = static_cast<UserId>(
        rng.NextUint64(static_cast<std::uint64_t>(n)));
    const int from = state.group_of()[static_cast<std::size_t>(u)];
    const bool try_swap =
        ell > 1 && rng.NextDouble() < options_.swap_fraction;
    int to = from;
    while (to == from && ell > 1) {
      to = static_cast<int>(rng.NextUint64(
          static_cast<std::uint64_t>(ell)));
    }
    if (to == from) continue;  // ell == 1: nothing to do

    const auto& src = groups[static_cast<std::size_t>(from)];
    const auto& dst = groups[static_cast<std::size_t>(to)];
    const bool swap = try_swap && !dst.empty();
    if (!swap && src.size() == 1 && dst.empty()) continue;  // no-op shuffle
    const UserId v =
        swap ? dst[static_cast<std::size_t>(rng.NextUint64(dst.size()))]
             : kInvalidUser;
    const double src_sat =
        swap ? state.Replace(from, u, v) : state.Remove(from, u);
    const double dst_sat =
        swap ? state.Replace(to, v, u) : state.Add(to, u);
    const double delta =
        (src_sat + dst_sat) - (scores[static_cast<std::size_t>(from)] +
                               scores[static_cast<std::size_t>(to)]);
    if (accept(delta)) {
      if (swap) {
        state.Swap(u, v, src_sat, dst_sat);
      } else {
        state.Relocate(u, to, src_sat, dst_sat);
      }
    }
    if (state.objective() > best_objective) {
      best_objective = state.objective();
      best_groups.assign(groups.begin(), groups.end());
    }
  }

  FormationResult result = core::PackageGroups(problem_, scorer, best_groups);
  result.algorithm = "SA";
  result.partial = partial;
  return result;
}

}  // namespace groupform::exact
