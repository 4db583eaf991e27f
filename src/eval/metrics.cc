#include "eval/metrics.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "grouprec/weighted.h"
#include "recsys/preference_lists.h"

namespace groupform::eval {

double AvgGroupSatisfaction(const core::FormationProblem& problem,
                            const core::FormationResult& result) {
  if (result.groups.empty()) return 0.0;
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  double total = 0.0;
  for (const auto& g : result.groups) {
    // Sum of per-item group scores over the group's recommended list,
    // recomputed so every algorithm is measured identically.
    const auto list = core::ComputeGroupList(problem, scorer, g.members);
    for (const auto& si : list.items) total += si.score;
  }
  return total / static_cast<double>(result.groups.size());
}

data::FivePointSummary GroupSizeSummary(
    const core::FormationResult& result) {
  return data::Summarize(result.GroupSizes());
}

double MeanPerUserSatisfaction(const core::FormationProblem& problem,
                               const core::FormationResult& result) {
  const data::RatingStore matrix = problem.Store();
  const double r_min = matrix.scale().min;
  double total = 0.0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    for (UserId u : g.members) {
      double sum = 0.0;
      int count = 0;
      for (const auto& si : g.recommendation.items) {
        double r;
        const auto rating = matrix.GetRating(u, si.item);
        if (rating.has_value()) {
          r = *rating;
        } else if (problem.missing ==
                   grouprec::MissingRatingPolicy::kSkipUser) {
          continue;
        } else if (problem.missing == grouprec::MissingRatingPolicy::kZero) {
          r = 0.0;
        } else {
          r = r_min;
        }
        sum += r;
        ++count;
      }
      total += count > 0 ? sum / static_cast<double>(count) : r_min;
      ++users;
    }
  }
  return users > 0 ? total / static_cast<double>(users) : 0.0;
}

double FullySatisfiedFraction(const core::FormationProblem& problem,
                              const core::FormationResult& result) {
  const data::RatingStore matrix = problem.Store();
  std::int64_t satisfied = 0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    // The group's recommended item set, sorted for set comparison.
    std::vector<ItemId> rec_items;
    rec_items.reserve(g.recommendation.items.size());
    for (const auto& si : g.recommendation.items) {
      rec_items.push_back(si.item);
    }
    std::sort(rec_items.begin(), rec_items.end());
    for (UserId u : g.members) {
      ++users;
      const auto personal = recsys::TopKList(matrix, u, problem.k);
      if (personal.size() != rec_items.size()) continue;
      std::vector<ItemId> personal_items;
      personal_items.reserve(personal.size());
      for (const auto& e : personal) personal_items.push_back(e.item);
      std::sort(personal_items.begin(), personal_items.end());
      if (personal_items == rec_items) ++satisfied;
    }
  }
  return users > 0
             ? static_cast<double>(satisfied) / static_cast<double>(users)
             : 0.0;
}

ResponseMetrics ComputeResponseMetrics(const core::FormationProblem& problem,
                                       const core::FormationResult& result) {
  ResponseMetrics metrics;
  if (result.groups.empty()) return metrics;
  const data::RatingStore store = problem.Store();
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  const double r_min = store.scale().min;
  const int k = problem.k;
  GF_CHECK_GT(k, 0);
  const auto k_size = static_cast<std::size_t>(k);
  // The oracles' value of an item the member has not rated; kMissingRating
  // marks a skipped item, exactly as in grouprec::UserNdcg.
  double missing_value = r_min;
  if (problem.missing == grouprec::MissingRatingPolicy::kZero) {
    missing_value = 0.0;
  } else if (problem.missing == grouprec::MissingRatingPolicy::kSkipUser) {
    missing_value = kMissingRating;
  }
  // NdcgDiscount for every position a DCG or an ideal DCG can reach: under
  // k, and under the longest list or row.
  std::size_t positions = static_cast<std::size_t>(store.num_items());
  for (const core::FormedGroup& g : result.groups) {
    positions = std::max(positions, g.recommendation.items.size());
  }
  positions = std::min(positions, k_size);
  std::vector<double> discount(positions);
  for (std::size_t pos = 0; pos < positions; ++pos) {
    discount[pos] = grouprec::NdcgDiscount(static_cast<int>(pos));
  }

  // slot_of[item]: the item's slot in the current group's list, or -1. A
  // list that repeats an item gives both positions one slot.
  std::vector<std::int32_t> slot_of(
      static_cast<std::size_t>(store.num_items()), -1);
  std::vector<std::int32_t> list_slots;  // list position -> slot
  std::vector<double> slot_rating;       // the member's rating, or missing
  std::vector<data::RatingEntry> top;    // the personal top-k, best first
  top.reserve(positions);

  double satisfaction_total = 0.0;
  double rating_total = 0.0;
  double ndcg_total = 0.0;
  std::int64_t satisfied = 0;
  std::int64_t users = 0;
  for (const core::FormedGroup& g : result.groups) {
    const auto list = core::ComputeGroupList(problem, scorer, g.members);
    for (const auto& si : list.items) satisfaction_total += si.score;

    const auto& items = g.recommendation.items;
    list_slots.clear();
    std::int32_t num_slots = 0;
    for (const auto& si : items) {
      GF_DCHECK(si.item >= 0 && si.item < store.num_items());
      std::int32_t& slot = slot_of[static_cast<std::size_t>(si.item)];
      if (slot < 0) slot = num_slots++;
      list_slots.push_back(slot);
    }
    slot_rating.resize(static_cast<std::size_t>(num_slots));

    for (UserId u : g.members) {
      std::fill(slot_rating.begin(), slot_rating.end(), missing_value);
      top.clear();
      store.VisitRow(u, [&](ItemId item, Rating rating) {
        const std::int32_t slot = slot_of[static_cast<std::size_t>(item)];
        if (slot >= 0) slot_rating[static_cast<std::size_t>(slot)] = rating;
        recsys::InsertTopK(top, k_size, item, rating);
      });

      // MeanPerUserSatisfaction and the DCG half of UserNdcg, in list
      // order. A skipped item counts toward neither the mean nor a DCG
      // position.
      double rating_sum = 0.0;
      int rated = 0;
      double dcg = 0.0;
      int pos = 0;
      for (const std::int32_t slot : list_slots) {
        const double r = slot_rating[static_cast<std::size_t>(slot)];
        if (r == kMissingRating) continue;
        rating_sum += r;
        ++rated;
        if (pos < k) {
          dcg += grouprec::NdcgGain(r) *
                 discount[static_cast<std::size_t>(pos)];
          ++pos;
        }
      }
      rating_total +=
          rated > 0 ? rating_sum / static_cast<double>(rated) : r_min;

      // The ideal DCG over the personal top-k, best first.
      double idcg = 0.0;
      for (std::size_t j = 0; j < top.size(); ++j) {
        idcg += grouprec::NdcgGain(top[j].rating) * discount[j];
      }
      ndcg_total += idcg <= 0.0 ? 0.0 : dcg / idcg;

      // Set equality with the group's list: equal sizes and every personal
      // item in the list (a list with a repeated item has fewer distinct
      // items than positions, so no personal top-k can match it).
      if (top.size() == items.size() &&
          std::all_of(top.begin(), top.end(),
                      [&](const data::RatingEntry& e) {
                        return slot_of[static_cast<std::size_t>(e.item)] >= 0;
                      })) {
        ++satisfied;
      }
      ++users;
    }
    for (const auto& si : items) {
      slot_of[static_cast<std::size_t>(si.item)] = -1;
    }
  }

  metrics.avg_group_satisfaction =
      satisfaction_total / static_cast<double>(result.groups.size());
  if (users > 0) {
    const auto n = static_cast<double>(users);
    metrics.mean_user_rating = rating_total / n;
    metrics.mean_user_ndcg = ndcg_total / n;
    metrics.fully_satisfied = static_cast<double>(satisfied) / n;
  }
  return metrics;
}

}  // namespace groupform::eval
