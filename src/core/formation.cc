#include "core/formation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace groupform::core {

using common::Status;
using common::StrFormat;

Status FormationProblem::Validate() const {
  if (matrix == nullptr && compact == nullptr) {
    return Status::InvalidArgument("matrix must not be null");
  }
  const data::RatingStore store = Store();
  if (store.num_users() <= 0) {
    return Status::InvalidArgument("population is empty");
  }
  if (store.num_items() <= 0) {
    return Status::InvalidArgument("catalogue is empty");
  }
  if (k < 1) {
    return Status::InvalidArgument(StrFormat("k must be >= 1, got %d", k));
  }
  if (max_groups < 1) {
    return Status::InvalidArgument(
        StrFormat("max_groups must be >= 1, got %d", max_groups));
  }
  if (candidate_depth < 0) {
    return Status::InvalidArgument(StrFormat(
        "candidate_depth must be >= 0, got %d", candidate_depth));
  }
  // Structural + id-range constraint checks only: whether the bounds are
  // *satisfiable* is the constrained family's question (ConstraintSpec::
  // Validate), so unconstrained solvers keep running on constraint-
  // bearing problems.
  GF_RETURN_IF_ERROR(constraints.ValidateForPopulation(store.num_users()));
  return Status::Ok();
}

grouprec::GroupScorer FormationProblem::MakeScorer() const {
  grouprec::GroupScorer::Options options;
  options.semantics = semantics;
  options.missing = missing;
  return grouprec::GroupScorer(Store(), options);
}

std::string FormationProblem::ToString() const {
  return StrFormat("%s/%s k=%d ell=%d n=%d m=%d",
                   grouprec::SemanticsToString(semantics),
                   grouprec::AggregationToString(aggregation), k, max_groups,
                   matrix != nullptr || compact != nullptr
                       ? Store().num_users()
                       : 0,
                   matrix != nullptr || compact != nullptr
                       ? Store().num_items()
                       : 0);
}

std::vector<double> FormationResult::GroupSizes() const {
  std::vector<double> sizes;
  sizes.reserve(groups.size());
  for (const auto& g : groups) {
    sizes.push_back(static_cast<double>(g.members.size()));
  }
  return sizes;
}

std::string FormationResult::ToString() const {
  std::string out = StrFormat("%s: %d groups, objective %.3f\n",
                              algorithm.c_str(), num_groups(), objective);
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& g = groups[gi];
    out += StrFormat("  group %zu (sat %.3f): users {", gi, g.satisfaction);
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat("%d", g.members[i]);
    }
    out += "}, items [";
    for (std::size_t i = 0; i < g.recommendation.items.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat("%d:%.2f", g.recommendation.items[i].item,
                       g.recommendation.items[i].score);
    }
    out += "]\n";
  }
  return out;
}

Status ValidatePartition(const FormationProblem& problem,
                         const FormationResult& result) {
  GF_RETURN_IF_ERROR(problem.Validate());
  const std::int32_t n = problem.Store().num_users();
  if (result.num_groups() > problem.max_groups) {
    return Status::FailedPrecondition(
        StrFormat("%d groups formed, max is %d", result.num_groups(),
                  problem.max_groups));
  }
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::int64_t covered = 0;
  double sat_sum = 0.0;
  for (const auto& g : result.groups) {
    if (g.members.empty()) {
      return Status::FailedPrecondition("empty group in result");
    }
    for (UserId u : g.members) {
      if (u < 0 || u >= n) {
        return Status::FailedPrecondition(
            StrFormat("user %d out of range", u));
      }
      if (seen[static_cast<std::size_t>(u)]) {
        return Status::FailedPrecondition(
            StrFormat("user %d appears in two groups", u));
      }
      seen[static_cast<std::size_t>(u)] = true;
      ++covered;
    }
    sat_sum += g.satisfaction;
  }
  if (covered != n) {
    return Status::FailedPrecondition(
        StrFormat("partition covers %lld of %d users",
                  static_cast<long long>(covered), n));
  }
  if (std::abs(sat_sum - result.objective) > 1e-6 * std::max(1.0, sat_sum)) {
    return Status::FailedPrecondition(
        StrFormat("objective %.6f != sum of satisfactions %.6f",
                  result.objective, sat_sum));
  }
  return Status::Ok();
}

grouprec::GroupTopK ComputeGroupList(const FormationProblem& problem,
                                     const grouprec::GroupScorer& scorer,
                                     std::span<const UserId> members) {
  if (problem.candidate_depth == 0) {
    return scorer.TopKAllItems(members, problem.k);
  }
  const int depth = std::max(problem.candidate_depth, problem.k);
  return scorer.TopKUnionCandidates(members, problem.k, depth);
}

GroupScore ScoreGroup(const FormationProblem& problem,
                      const grouprec::GroupScorer& scorer,
                      std::span<const UserId> members) {
  GroupScore score;
  if (members.empty()) return score;
  score.list = ComputeGroupList(problem, scorer, members);
  score.satisfaction = AggregateListSatisfaction(
      problem, static_cast<int>(members.size()), score.list);
  return score;
}

std::vector<GroupScore> ScoreGroups(
    const FormationProblem& problem, const grouprec::GroupScorer& scorer,
    std::span<const std::vector<UserId>> groups) {
  std::vector<GroupScore> scores(groups.size());
  common::ThreadPool::Shared().ParallelFor(
      static_cast<std::int64_t>(groups.size()), [&](std::int64_t g) {
        scores[static_cast<std::size_t>(g)] =
            ScoreGroup(problem, scorer, groups[static_cast<std::size_t>(g)]);
      });
  return scores;
}

FormationResult PackageGroups(const FormationProblem& problem,
                              const grouprec::GroupScorer& scorer,
                              std::span<const std::vector<UserId>> groups) {
  std::vector<GroupScore> scores = ScoreGroups(problem, scorer, groups);
  FormationResult result;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    result.objective += scores[g].satisfaction;
    result.groups.push_back(
        {groups[g], std::move(scores[g].list), scores[g].satisfaction});
  }
  return result;
}

double MissingSlotScore(const FormationProblem& problem, int group_size) {
  const double r_min = problem.Store().scale().min;
  switch (problem.missing) {
    case grouprec::MissingRatingPolicy::kScaleMin:
      return problem.semantics == grouprec::Semantics::kAggregateVoting
                 ? r_min * static_cast<double>(group_size)
                 : r_min;
    case grouprec::MissingRatingPolicy::kZero:
      return 0.0;
    case grouprec::MissingRatingPolicy::kSkipUser:
      return r_min;
  }
  return r_min;
}

double AggregateListSatisfaction(const FormationProblem& problem,
                                 int group_size,
                                 const grouprec::GroupTopK& list) {
  const int k = problem.k;
  const bool catalogue_exhausted =
      problem.Store().num_items() <= list.size();
  if (list.size() >= k || catalogue_exhausted) {
    return grouprec::GroupScorer::AggregateSatisfaction(list,
                                                        problem.aggregation);
  }
  const double miss = MissingSlotScore(problem, group_size);
  switch (problem.aggregation) {
    case grouprec::Aggregation::kMax:
      return list.empty() ? miss : list.items.front().score;
    case grouprec::Aggregation::kMin:
      return miss;
    case grouprec::Aggregation::kSum: {
      double sum = 0.0;
      for (const auto& si : list.items) sum += si.score;
      return sum + static_cast<double>(k - list.size()) * miss;
    }
  }
  return miss;
}

double RecomputeObjective(const FormationProblem& problem,
                          const FormationResult& result) {
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  // Per-group scores land in per-index slots; the serial sum below keeps
  // the floating-point order fixed regardless of thread count.
  std::vector<double> satisfactions(result.groups.size(), 0.0);
  common::ThreadPool::Shared().ParallelFor(
      static_cast<std::int64_t>(result.groups.size()), [&](std::int64_t g) {
        const auto& group = result.groups[static_cast<std::size_t>(g)];
        const auto list = scorer.TopKAllItems(group.members, problem.k);
        satisfactions[static_cast<std::size_t>(g)] =
            AggregateListSatisfaction(
                problem, static_cast<int>(group.members.size()), list);
      });
  double total = 0.0;
  for (const double satisfaction : satisfactions) total += satisfaction;
  return total;
}

}  // namespace groupform::core
