#include "exact/local_search.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "exact/move_evaluator.h"

namespace groupform::exact {
namespace {

using core::FormationResult;
using PlannedMove = LocalSearchSolver::PlannedMove;

/// Plans one user's best move against the pass-start partition in
/// `state`. Pure in (state, pass_seed, u) — the ParallelFor body of
/// PlanPass — so the plan is identical at every thread count.
PlannedMove PlanMoveForUser(const SearchState& state, UserId u,
                            std::uint64_t pass_seed,
                            const LocalSearchSolver::Options& options) {
  PlannedMove move;
  const std::span<const std::vector<UserId>> groups = state.groups();
  const std::span<const double> satisfaction = state.satisfaction();
  if (groups.size() <= 1) return move;  // no other group to move into
  const int from = state.group_of()[static_cast<std::size_t>(u)];

  // Evaluate removing u from its group once.
  const double from_without_sat = state.Remove(from, u);

  // Best single-user relocation, targets in group-index order.
  double best_gain = options.min_improvement;
  int best_to = -1;
  double best_to_sat = 0.0;
  bool considered_empty = false;
  for (std::size_t to = 0; to < groups.size(); ++to) {
    if (static_cast<int>(to) == from) continue;
    if (groups[to].empty()) {
      // All empty slots are interchangeable; evaluate one per user.
      if (considered_empty) continue;
      considered_empty = true;
    }
    const double to_with_sat = state.Add(static_cast<int>(to), u);
    const double gain =
        (from_without_sat + to_with_sat) -
        (satisfaction[static_cast<std::size_t>(from)] + satisfaction[to]);
    if (gain > best_gain) {
      best_gain = gain;
      best_to = static_cast<int>(to);
      best_to_sat = to_with_sat;
    }
  }
  if (best_to >= 0) {
    move.kind = PlannedMove::Kind::kRelocate;
    move.to = best_to;
    move.gain = best_gain;
    move.from_sat = from_without_sat;
    move.to_sat = best_to_sat;
    return move;
  }

  // Sampled swaps: exchange u with a random member of another group,
  // first improving sample wins. The draws come from the user's own
  // (pass_seed, u) stream, never a shared one, so sampling does not
  // depend on evaluation schedule.
  if (!options.use_swaps) return move;
  common::Rng rng = SwapRngForUser(pass_seed, u);
  for (std::size_t to = 0; to < groups.size(); ++to) {
    if (static_cast<int>(to) == from || groups[to].empty()) continue;
    for (int s = 0; s < options.swap_samples; ++s) {
      const auto& dst = groups[to];
      const UserId v =
          dst[static_cast<std::size_t>(rng.NextUint64(dst.size()))];
      const double from_sat = state.Replace(from, u, v);
      const double to_sat = state.Replace(static_cast<int>(to), v, u);
      const double gain =
          (from_sat + to_sat) -
          (satisfaction[static_cast<std::size_t>(from)] + satisfaction[to]);
      if (gain > options.min_improvement) {
        move.kind = PlannedMove::Kind::kSwap;
        move.to = static_cast<int>(to);
        move.partner = v;
        move.gain = gain;
        move.from_sat = from_sat;
        move.to_sat = to_sat;
        return move;
      }
    }
  }
  return move;
}

}  // namespace

std::vector<PlannedMove> PlanPass(const SearchState& state,
                                  std::span<const UserId> visit_order,
                                  std::uint64_t pass_seed,
                                  const LocalSearchSolver::Options& options) {
  std::vector<PlannedMove> moves(visit_order.size());
  const auto plan_one = [&](std::int64_t i) {
    moves[static_cast<std::size_t>(i)] =
        PlanMoveForUser(state, visit_order[static_cast<std::size_t>(i)],
                        pass_seed, options);
  };
  common::ThreadPool::Shared().ParallelFor(
      static_cast<std::int64_t>(visit_order.size()), /*grain=*/0, plan_one);
  return moves;
}

common::Rng SwapRngForUser(std::uint64_t pass_seed, UserId u) {
  // Golden-ratio spread of the user id over the pass seed; Rng's
  // SplitMix64 expansion decorrelates the nearby seeds of nearby users.
  return common::Rng(pass_seed +
                     0x9e3779b97f4a7c15ULL *
                         (static_cast<std::uint64_t>(u) + 1));
}

common::StatusOr<FormationResult> LocalSearchSolver::Solve(
    std::uint64_t seed) const {
  const auto started = std::chrono::steady_clock::now();
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  const int ell = problem_.max_groups;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  common::Rng rng(seed);

  // ---- Initial partition ----
  // Validate the warm start (if any) before touching the rng: it must be
  // an exact partition of the users into at most ell groups. Groups are
  // re-sorted and padded to ell slots so the climb sees the same state
  // shape as a cold run.
  std::vector<std::vector<UserId>> warm_groups;
  if (!options_.start_assignment.empty()) {
    if (static_cast<int>(options_.start_assignment.size()) > ell) {
      return common::Status::InvalidArgument(common::StrFormat(
          "start_assignment has %zu groups, max_groups is %d",
          options_.start_assignment.size(), ell));
    }
    warm_groups.assign(static_cast<std::size_t>(ell), {});
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    int covered = 0;
    for (std::size_t g = 0; g < options_.start_assignment.size(); ++g) {
      for (const UserId u : options_.start_assignment[g]) {
        if (u < 0 || u >= n) {
          return common::Status::InvalidArgument(common::StrFormat(
              "start_assignment member %d is outside [0, %d)", u, n));
        }
        if (seen[static_cast<std::size_t>(u)]) {
          return common::Status::InvalidArgument(common::StrFormat(
              "start_assignment lists user %d twice", u));
        }
        seen[static_cast<std::size_t>(u)] = 1;
        ++covered;
        warm_groups[g].push_back(u);
      }
      std::sort(warm_groups[g].begin(), warm_groups[g].end());
    }
    if (covered != n) {
      return common::Status::InvalidArgument(common::StrFormat(
          "start_assignment covers %d of %d users", covered, n));
    }
  }

  ScoredPartition start;
  if (options_.init_with_greedy || warm_groups.empty()) {
    GF_ASSIGN_OR_RETURN(start, SeedPartition(problem_, scorer,
                                             options_.init_with_greedy, rng));
  }
  // Warm-vs-seed selection (DESIGN.md §13): with both a greedy seed and
  // a warm start, climb from whichever scores higher; ties keep the warm
  // start so a converged epoch re-solve starts (and stays) at its own
  // optimum. When the greedy seed wins, the run is byte-identical to a
  // cold one — no init path that reaches this point has touched the rng.
  if (!warm_groups.empty()) {
    ScoredPartition warm =
        ScorePartition(problem_, scorer, std::move(warm_groups));
    if (!options_.init_with_greedy || warm.Objective() >= start.Objective()) {
      start = std::move(warm);
    }
  }
  SearchState state(problem_, scorer, std::move(start),
                    SearchState::Insert::kSortAll);

  // ---- Hill climbing: plan in parallel, apply serially ----
  std::vector<UserId> visit_order(static_cast<std::size_t>(n));
  std::iota(visit_order.begin(), visit_order.end(), 0);
  std::vector<char> dirty(state.groups().size(), 0);
  int refine_passes = 0;
  bool partial = false;

  for (int pass = 0; pass < options_.max_passes; ++pass) {
    // Anytime contract (DESIGN.md §17.4): the pass-boundary state is the
    // best partition seen so far (hill climbing never regresses), so an
    // expired budget returns it as a partial snapshot instead of failing.
    if (options_.deadline_ms >= 0 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
                .count() >= options_.deadline_ms) {
      partial = true;
      break;
    }
    rng.Shuffle(visit_order);
    const std::uint64_t pass_seed = rng.NextUint64();
    // Plan phase: every user's best move against the pass-start
    // partition, batch-evaluated on the pool (DESIGN.md §10.3: each
    // visit-order slot is written by exactly one index).
    const std::vector<PlannedMove> moves =
        PlanPass(state, visit_order, pass_seed, options_);

    // Apply phase: serial, in visit order. A planned gain is exact as
    // long as both involved groups still match the snapshot, so moves
    // touching a group an earlier application modified are skipped (the
    // next pass re-plans them). The first improving move in visit order
    // always sees clean groups, so a pass applies at least one move
    // whenever any user had an improving candidate.
    std::fill(dirty.begin(), dirty.end(), 0);
    bool improved = false;
    for (std::size_t i = 0; i < visit_order.size(); ++i) {
      const PlannedMove& move = moves[i];
      if (move.kind == PlannedMove::Kind::kNone) continue;
      const UserId u = visit_order[i];
      const int from = state.group_of()[static_cast<std::size_t>(u)];
      if (dirty[static_cast<std::size_t>(from)] ||
          dirty[static_cast<std::size_t>(move.to)]) {
        continue;  // stale against the snapshot
      }
      if (move.kind == PlannedMove::Kind::kSwap) {
        state.Swap(u, move.partner, move.from_sat, move.to_sat);
      } else {
        state.Relocate(u, move.to, move.from_sat, move.to_sat);
      }
      dirty[static_cast<std::size_t>(from)] = 1;
      dirty[static_cast<std::size_t>(move.to)] = 1;
      improved = true;
    }
    if (!improved) break;
    ++refine_passes;
  }

  FormationResult result =
      core::PackageGroups(problem_, scorer, state.groups());
  result.algorithm = "OPT*-LS";
  result.refine_passes = refine_passes;
  result.partial = partial;
  return result;
}

}  // namespace groupform::exact
