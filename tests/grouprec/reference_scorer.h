#ifndef GROUPFORM_TESTS_GROUPREC_REFERENCE_SCORER_H_
#define GROUPFORM_TESTS_GROUPREC_REFERENCE_SCORER_H_

// The slow reference group top-k: a hash map keyed by candidate item
// accumulates every member's row (members in group order), then every
// candidate is scored and partial-sorted under the library tie rule. This
// was GroupScorer's implementation before the sparse kernel; tests keep it
// as the oracle the kernel must match bit for bit.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/rating_store.h"
#include "grouprec/group_scorer.h"

namespace groupform::grouprec::reference {

struct Accum {
  int raters = 0;
  double min = std::numeric_limits<double>::infinity();
  double sum = 0.0;
};

/// Definitions 1 and 2 with the missing-rating policies, spelled out
/// independently of the library's resolver.
inline double Resolve(const Accum& acc, int group_size,
                      const GroupScorer::Options& options, double r_min) {
  const bool lm = options.semantics == Semantics::kLeastMisery;
  const bool complete = acc.raters == group_size && group_size > 0;
  switch (options.missing) {
    case MissingRatingPolicy::kScaleMin:
      if (lm) return complete ? acc.min : r_min;
      return acc.sum + static_cast<double>(group_size - acc.raters) * r_min;
    case MissingRatingPolicy::kZero:
      if (!lm) return acc.sum;
      if (acc.raters == 0) return 0.0;
      return complete ? acc.min : std::min(acc.min, 0.0);
    case MissingRatingPolicy::kSkipUser:
      if (acc.raters == 0) return r_min;
      return lm ? acc.min : acc.sum;
  }
  return r_min;
}

inline GroupTopK TopK(const data::RatingStore& store,
                      const GroupScorer::Options& options,
                      std::span<const UserId> group, int k,
                      std::span<const ItemId> candidates) {
  GroupTopK result;
  if (group.empty() || candidates.empty()) return result;
  std::unordered_map<ItemId, Accum> accums;
  for (ItemId item : candidates) accums.try_emplace(item);
  for (UserId u : group) {
    store.VisitRow(u, [&accums](ItemId item, Rating rating) {
      const auto it = accums.find(item);
      if (it == accums.end()) return;
      Accum& acc = it->second;
      ++acc.raters;
      acc.min = std::min(acc.min, rating);
      acc.sum += rating;
    });
  }
  const int group_size = static_cast<int>(group.size());
  for (ItemId item : candidates) {
    result.items.push_back({item, Resolve(accums.at(item), group_size,
                                          options, store.scale().min)});
  }
  const std::size_t keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), result.items.size());
  std::partial_sort(result.items.begin(), result.items.begin() + keep,
                    result.items.end(), BetterScoredItem);
  result.items.resize(keep);
  return result;
}

inline GroupTopK TopKAllItems(const data::RatingStore& store,
                              const GroupScorer::Options& options,
                              std::span<const UserId> group, int k) {
  std::vector<ItemId> candidates(static_cast<std::size_t>(store.num_items()));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i] = static_cast<ItemId>(i);
  }
  return TopK(store, options, group, k, candidates);
}

}  // namespace groupform::grouprec::reference

#endif  // GROUPFORM_TESTS_GROUPREC_REFERENCE_SCORER_H_
