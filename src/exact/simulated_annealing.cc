#include "exact/simulated_annealing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/greedy.h"
#include "exact/move_evaluator.h"

namespace groupform::exact {

using core::FormationResult;
using core::FormedGroup;

common::StatusOr<FormationResult> SimulatedAnnealingSolver::Run() const {
  const auto started = std::chrono::steady_clock::now();
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  const int ell = problem_.max_groups;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  common::Rng rng(options_.seed);

  // ---- Start state ----
  std::vector<std::vector<UserId>> groups(static_cast<std::size_t>(ell));
  if (options_.init_with_greedy) {
    GF_ASSIGN_OR_RETURN(auto seed_result, core::RunGreedy(problem_));
    for (std::size_t g = 0; g < seed_result.groups.size(); ++g) {
      groups[g] = std::move(seed_result.groups[g].members);
    }
  } else {
    std::vector<UserId> order(static_cast<std::size_t>(n));
    for (int u = 0; u < n; ++u) order[static_cast<std::size_t>(u)] = u;
    rng.Shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      groups[i % static_cast<std::size_t>(ell)].push_back(order[i]);
    }
  }
  std::vector<double> scores(groups.size());
  std::vector<int> group_of(static_cast<std::size_t>(n), 0);
  double objective = 0.0;
  const std::vector<core::GroupScore> seed_scores =
      core::ScoreGroups(problem_, scorer, groups);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    scores[g] = seed_scores[g].satisfaction;
    objective += scores[g];
    for (UserId u : groups[g]) {
      group_of[static_cast<std::size_t>(u)] = static_cast<int>(g);
    }
  }

  // Scores every proposal; the two groups of an accepted move are
  // rebuilt right after it lands.
  MoveEvaluator evaluator(problem_, scorer, groups,
                          MoveEvaluator::Insert::kLowerBound);

  // Best-ever snapshot.
  auto best_groups = groups;
  double best_objective = objective;

  double temperature =
      std::max(objective, 1.0) * options_.initial_temperature_fraction;
  const auto accept = [&](double delta) {
    if (delta >= 0.0) return true;
    if (temperature <= 1e-12) return false;
    return rng.NextDouble() < std::exp(delta / temperature);
  };

  const auto remove_from = [](std::vector<UserId>& members, UserId u) {
    members.erase(std::find(members.begin(), members.end(), u));
  };
  const auto insert_sorted = [](std::vector<UserId>& members, UserId u) {
    members.insert(
        std::lower_bound(members.begin(), members.end(), u), u);
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
    const int from = group_of[static_cast<std::size_t>(u)];
    const bool try_swap =
        ell > 1 && rng.NextDouble() < options_.swap_fraction;
    int to = from;
    while (to == from && ell > 1) {
      to = static_cast<int>(rng.NextUint64(
          static_cast<std::uint64_t>(ell)));
    }
    if (to == from) continue;  // ell == 1: nothing to do

    auto& src = groups[static_cast<std::size_t>(from)];
    auto& dst = groups[static_cast<std::size_t>(to)];
    const bool swap = try_swap && !dst.empty();
    if (!swap && src.size() == 1 && dst.empty()) continue;  // no-op shuffle
    const UserId v =
        swap ? dst[static_cast<std::size_t>(rng.NextUint64(dst.size()))]
             : kInvalidUser;
    const double src_sat =
        swap ? evaluator.Replace(from, u, v) : evaluator.Remove(from, u);
    const double dst_sat =
        swap ? evaluator.Replace(to, v, u) : evaluator.Add(to, u);
    const double delta =
        (src_sat + dst_sat) - (scores[static_cast<std::size_t>(from)] +
                               scores[static_cast<std::size_t>(to)]);
    if (accept(delta)) {
      // The same edits, in the same order, as the evaluator's candidates:
      // groups may be unsorted, so the order places the inserted ids.
      remove_from(src, u);
      if (swap) {
        insert_sorted(src, v);
        remove_from(dst, v);
        group_of[static_cast<std::size_t>(v)] = from;
      }
      insert_sorted(dst, u);
      group_of[static_cast<std::size_t>(u)] = to;
      evaluator.Rebuild(from);
      evaluator.Rebuild(to);
      scores[static_cast<std::size_t>(from)] = src_sat;
      scores[static_cast<std::size_t>(to)] = dst_sat;
      objective += delta;
    }
    if (objective > best_objective) {
      best_objective = objective;
      best_groups = groups;
    }
  }

  // ---- Package the best state ----
  FormationResult result;
  result.algorithm = "SA";
  result.partial = partial;
  for (const auto& members : best_groups) {
    if (members.empty()) continue;
    FormedGroup group;
    group.members = members;
    group.recommendation =
        core::ComputeGroupList(problem_, scorer, group.members);
    group.satisfaction = core::AggregateListSatisfaction(
        problem_, static_cast<int>(group.members.size()),
        group.recommendation);
    result.objective += group.satisfaction;
    result.groups.push_back(std::move(group));
  }
  return result;
}

}  // namespace groupform::exact
