#include "exact/local_search.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "exact/move_evaluator.h"

namespace groupform::exact {
namespace {

using core::FormationResult;
using core::FormedGroup;
using PlannedMove = LocalSearchSolver::PlannedMove;

/// Mutable partition state with cached per-group satisfactions.
struct State {
  std::vector<std::vector<UserId>> groups;  // some may be empty
  std::vector<double> satisfaction;
  double objective = 0.0;
};

void RemoveUser(std::vector<UserId>& members, UserId user) {
  const auto it = std::find(members.begin(), members.end(), user);
  GF_CHECK(it != members.end());
  members.erase(it);
}

/// Plans one user's best move against the snapshot partition that
/// `evaluator` reads. Pure in (snapshot, pass_seed, u) — the ParallelFor
/// body of PlanPass — so the plan is identical at every thread count.
PlannedMove PlanMoveForUser(const MoveEvaluator& evaluator,
                            std::span<const std::vector<UserId>> groups,
                            std::span<const double> satisfaction,
                            std::span<const int> group_of, UserId u,
                            std::uint64_t pass_seed,
                            const LocalSearchSolver::Options& options) {
  PlannedMove move;
  if (groups.size() <= 1) return move;  // no other group to move into
  const int from = group_of[static_cast<std::size_t>(u)];

  // Evaluate removing u from its group once.
  const double from_without_sat = evaluator.Remove(from, u);

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
    const double to_with_sat = evaluator.Add(static_cast<int>(to), u);
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
      const double from_sat = evaluator.Replace(from, u, v);
      const double to_sat = evaluator.Replace(static_cast<int>(to), v, u);
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

/// PlanPassMoves against an evaluator whose state matches `groups`.
std::vector<PlannedMove> PlanPass(const MoveEvaluator& evaluator,
                                  std::span<const std::vector<UserId>> groups,
                                  std::span<const double> satisfaction,
                                  std::span<const int> group_of,
                                  std::span<const UserId> visit_order,
                                  std::uint64_t pass_seed,
                                  const LocalSearchSolver::Options& options) {
  std::vector<PlannedMove> moves(visit_order.size());
  const auto plan_one = [&](std::int64_t i) {
    moves[static_cast<std::size_t>(i)] = PlanMoveForUser(
        evaluator, groups, satisfaction, group_of,
        visit_order[static_cast<std::size_t>(i)], pass_seed, options);
  };
  common::ThreadPool::Shared().ParallelFor(
      static_cast<std::int64_t>(visit_order.size()), /*grain=*/0, plan_one);
  return moves;
}

}  // namespace

common::Rng SwapRngForUser(std::uint64_t pass_seed, UserId u) {
  // Golden-ratio spread of the user id over the pass seed; Rng's
  // SplitMix64 expansion decorrelates the nearby seeds of nearby users.
  return common::Rng(pass_seed +
                     0x9e3779b97f4a7c15ULL *
                         (static_cast<std::uint64_t>(u) + 1));
}

std::vector<PlannedMove> PlanPassMoves(
    const core::FormationProblem& problem,
    const grouprec::GroupScorer& scorer,
    std::span<const std::vector<UserId>> groups,
    std::span<const double> satisfaction, std::span<const int> group_of,
    std::span<const UserId> visit_order, std::uint64_t pass_seed,
    const LocalSearchSolver::Options& options) {
  const MoveEvaluator evaluator(problem, scorer, groups,
                                MoveEvaluator::Insert::kSortAll);
  return PlanPass(evaluator, groups, satisfaction, group_of, visit_order,
                  pass_seed, options);
}

common::StatusOr<FormationResult> LocalSearchSolver::Run() const {
  const auto started = std::chrono::steady_clock::now();
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  const int ell = problem_.max_groups;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  common::Rng rng(options_.seed);

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

  State state;
  state.groups.assign(static_cast<std::size_t>(ell), {});
  if (options_.init_with_greedy) {
    GF_ASSIGN_OR_RETURN(auto seed_result, core::RunGreedy(problem_));
    for (std::size_t g = 0; g < seed_result.groups.size(); ++g) {
      state.groups[g] = std::move(seed_result.groups[g].members);
    }
  } else if (!warm_groups.empty()) {
    state.groups = warm_groups;
  } else {
    // Balanced random split.
    std::vector<UserId> order(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) order[static_cast<std::size_t>(u)] = u;
    rng.Shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      state.groups[i % static_cast<std::size_t>(ell)].push_back(order[i]);
    }
  }
  // Batch-score the seed partition on the shared thread pool; the serial
  // sum keeps the objective's floating-point order thread-count-invariant.
  state.satisfaction.resize(state.groups.size());
  const std::vector<core::GroupScore> seed_scores =
      core::ScoreGroups(problem_, scorer, state.groups);
  for (std::size_t g = 0; g < state.groups.size(); ++g) {
    state.satisfaction[g] = seed_scores[g].satisfaction;
    state.objective += state.satisfaction[g];
  }
  // Warm-vs-seed selection (DESIGN.md §13): with both a greedy seed and
  // a warm start, climb from whichever scores higher; ties keep the warm
  // start so a converged epoch re-solve starts (and stays) at its own
  // optimum. When the greedy seed wins, the run is byte-identical to a
  // cold one — no init path that reaches this point has touched the rng.
  if (!warm_groups.empty() && options_.init_with_greedy) {
    const std::vector<core::GroupScore> warm_scores =
        core::ScoreGroups(problem_, scorer, warm_groups);
    double warm_objective = 0.0;
    for (const core::GroupScore& score : warm_scores) {
      warm_objective += score.satisfaction;
    }
    if (warm_objective >= state.objective) {
      state.groups = std::move(warm_groups);
      for (std::size_t g = 0; g < state.groups.size(); ++g) {
        state.satisfaction[g] = warm_scores[g].satisfaction;
      }
      state.objective = warm_objective;
    }
  }

  // ---- Hill climbing: plan in parallel, apply serially ----
  std::vector<UserId> visit_order(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) visit_order[static_cast<std::size_t>(u)] = u;
  std::vector<int> group_of(static_cast<std::size_t>(n), 0);
  for (std::size_t g = 0; g < state.groups.size(); ++g) {
    for (UserId u : state.groups[g]) {
      group_of[static_cast<std::size_t>(u)] = static_cast<int>(g);
    }
  }
  std::vector<char> dirty(state.groups.size(), 0);
  // Scores every candidate; its per-group state follows state.groups
  // through the dirty rebuild after each apply phase.
  MoveEvaluator evaluator(problem_, scorer, state.groups,
                          MoveEvaluator::Insert::kSortAll);
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
        PlanPass(evaluator, state.groups, state.satisfaction, group_of,
                 visit_order, pass_seed, options_);

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
      const int from = group_of[static_cast<std::size_t>(u)];
      if (dirty[static_cast<std::size_t>(from)] ||
          dirty[static_cast<std::size_t>(move.to)]) {
        continue;  // stale against the snapshot
      }
      auto& src = state.groups[static_cast<std::size_t>(from)];
      auto& dst = state.groups[static_cast<std::size_t>(move.to)];
      RemoveUser(src, u);
      if (move.kind == PlannedMove::Kind::kSwap) {
        RemoveUser(dst, move.partner);
        src.push_back(move.partner);
        std::sort(src.begin(), src.end());
        group_of[static_cast<std::size_t>(move.partner)] = from;
      }
      dst.push_back(u);
      std::sort(dst.begin(), dst.end());
      group_of[static_cast<std::size_t>(u)] = move.to;
      state.objective += move.gain;
      state.satisfaction[static_cast<std::size_t>(from)] = move.from_sat;
      state.satisfaction[static_cast<std::size_t>(move.to)] = move.to_sat;
      dirty[static_cast<std::size_t>(from)] = 1;
      dirty[static_cast<std::size_t>(move.to)] = 1;
      improved = true;
    }
    if (!improved) break;
    for (std::size_t g = 0; g < dirty.size(); ++g) {
      if (dirty[g]) evaluator.Rebuild(static_cast<int>(g));
    }
    ++refine_passes;
  }

  // ---- Package ----
  // Final rescoring of all groups at once (the lists were not kept during
  // the search; only satisfactions were cached).
  std::vector<core::GroupScore> final_scores =
      core::ScoreGroups(problem_, scorer, state.groups);
  FormationResult result;
  result.algorithm = "OPT*-LS";
  result.refine_passes = refine_passes;
  result.partial = partial;
  for (std::size_t g = 0; g < state.groups.size(); ++g) {
    if (state.groups[g].empty()) continue;
    FormedGroup group;
    group.members = state.groups[g];
    group.recommendation = std::move(final_scores[g].list);
    group.satisfaction = state.satisfaction[g];
    result.objective += group.satisfaction;
    result.groups.push_back(std::move(group));
  }
  return result;
}

}  // namespace groupform::exact
