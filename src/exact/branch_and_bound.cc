#include "exact/branch_and_bound.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "grouprec/group_scorer.h"

namespace groupform::exact {
namespace {

using core::FormationResult;
using grouprec::Aggregation;
using grouprec::Semantics;

struct SearchState {
  std::vector<std::vector<UserId>> groups;
  std::vector<double> scores;
  double objective = 0.0;
  double best_objective = 0.0;
  std::vector<int> best_assignment;
  std::vector<int> assignment;
  std::int64_t nodes = 0;
  bool budget_exhausted = false;
};

}  // namespace

common::StatusOr<FormationResult> BranchAndBoundSolver::Solve(
    std::uint64_t) const {
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  if (n > options_.max_users) {
    return common::Status::ResourceExhausted(common::StrFormat(
        "BranchAndBoundSolver handles at most %d users, got %d",
        options_.max_users, n));
  }
  const int ell = std::min(problem_.max_groups, n);
  // Group scores cover the full catalogue whatever candidate_depth says.
  core::FormationProblem full_catalogue = problem_;
  full_catalogue.candidate_depth = 0;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  const bool lm = problem_.semantics == Semantics::kLeastMisery;

  // Solo scores and suffix bounds.
  std::vector<double> solo(static_cast<std::size_t>(n));
  for (UserId u = 0; u < n; ++u) {
    solo[static_cast<std::size_t>(u)] =
        core::ScoreGroup(full_catalogue, scorer, std::span(&u, 1))
            .satisfaction;
  }
  // For LM: suffix_top[u][t] = sum of the t largest solo scores among
  // users u..n-1 (t <= ell). For AV: each remaining user can add at most
  // `av_cap` to the objective whichever group they join.
  const double r_max = problem_.Store().scale().max;
  const double av_cap =
      (problem_.aggregation == Aggregation::kSum
           ? static_cast<double>(problem_.k)
           : 1.0) *
      r_max;
  std::vector<std::vector<double>> suffix_top;
  if (lm) {
    suffix_top.assign(static_cast<std::size_t>(n) + 1,
                      std::vector<double>(static_cast<std::size_t>(ell) + 1,
                                          0.0));
    for (int u = n - 1; u >= 0; --u) {
      std::vector<double> suffix(solo.begin() + u, solo.end());
      std::sort(suffix.begin(), suffix.end(), std::greater<>());
      for (int t = 1; t <= ell; ++t) {
        suffix_top[static_cast<std::size_t>(u)][static_cast<std::size_t>(
            t)] =
            suffix_top[static_cast<std::size_t>(u)]
                      [static_cast<std::size_t>(t) - 1] +
            (t - 1 < static_cast<int>(suffix.size())
                 ? suffix[static_cast<std::size_t>(t) - 1]
                 : 0.0);
      }
    }
  }

  // Incumbent: the greedy solution (also the fallback on budget
  // exhaustion).
  GF_ASSIGN_OR_RETURN(const FormationResult greedy,
                      core::RunGreedy(problem_));
  SearchState state;
  state.best_objective = greedy.objective;
  state.assignment.assign(static_cast<std::size_t>(n), -1);
  state.best_assignment.assign(static_cast<std::size_t>(n), 0);
  {
    // Seed best_assignment from greedy for reconstruction parity.
    int g = 0;
    for (const auto& group : greedy.groups) {
      for (UserId u : group.members) {
        state.best_assignment[static_cast<std::size_t>(u)] = g;
      }
      ++g;
    }
  }

  // The DFS keeps references into state.groups across recursive calls;
  // reserving the maximum depth up front guarantees no reallocation ever
  // invalidates them.
  state.groups.reserve(static_cast<std::size_t>(ell));
  state.scores.reserve(static_cast<std::size_t>(ell));

  const auto optimistic_suffix = [&](int next_user) {
    const int open = static_cast<int>(state.groups.size());
    if (lm) {
      const int new_slots = std::max(ell - open, 0);
      return suffix_top[static_cast<std::size_t>(next_user)]
                       [static_cast<std::size_t>(
                           std::min(new_slots, ell))];
    }
    return static_cast<double>(n - next_user) * av_cap;
  };

  const auto dfs = [&](auto&& self, int u) -> void {
    if (state.budget_exhausted) return;
    if (options_.max_nodes > 0 && state.nodes >= options_.max_nodes) {
      state.budget_exhausted = true;
      return;
    }
    ++state.nodes;
    if (u == n) {
      if (state.objective > state.best_objective + 1e-12) {
        state.best_objective = state.objective;
        state.best_assignment = state.assignment;
      }
      return;
    }
    if (state.objective + optimistic_suffix(u) <=
        state.best_objective + 1e-12) {
      return;  // prune
    }
    // Join each open group.
    for (std::size_t g = 0; g < state.groups.size(); ++g) {
      auto& members = state.groups[g];
      const double old_score = state.scores[g];
      members.push_back(u);
      const double new_score =
          core::ScoreGroup(full_catalogue, scorer, members).satisfaction;
      state.scores[g] = new_score;
      state.objective += new_score - old_score;
      state.assignment[static_cast<std::size_t>(u)] = static_cast<int>(g);
      self(self, u + 1);
      state.assignment[static_cast<std::size_t>(u)] = -1;
      state.objective -= new_score - old_score;
      state.scores[g] = old_score;
      members.pop_back();
    }
    // Open a new group (canonical: only one "new" branch per node).
    if (static_cast<int>(state.groups.size()) < ell) {
      state.groups.push_back({u});
      state.scores.push_back(solo[static_cast<std::size_t>(u)]);
      state.objective += solo[static_cast<std::size_t>(u)];
      state.assignment[static_cast<std::size_t>(u)] =
          static_cast<int>(state.groups.size()) - 1;
      self(self, u + 1);
      state.assignment[static_cast<std::size_t>(u)] = -1;
      state.objective -= solo[static_cast<std::size_t>(u)];
      state.scores.pop_back();
      state.groups.pop_back();
    }
  };
  dfs(dfs, 0);

  // Package the incumbent.
  std::vector<std::vector<UserId>> groups(static_cast<std::size_t>(
      1 + *std::max_element(state.best_assignment.begin(),
                            state.best_assignment.end())));
  for (UserId u = 0; u < n; ++u) {
    groups[static_cast<std::size_t>(
               state.best_assignment[static_cast<std::size_t>(u)])]
        .push_back(u);
  }
  FormationResult result =
      core::PackageGroups(full_catalogue, scorer, groups);
  result.algorithm = state.budget_exhausted ? "BNB*" : "BNB";
  return result;
}

}  // namespace groupform::exact
