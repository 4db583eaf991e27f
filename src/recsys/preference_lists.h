#ifndef GROUPFORM_RECSYS_PREFERENCE_LISTS_H_
#define GROUPFORM_RECSYS_PREFERENCE_LISTS_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"

namespace groupform::recsys {

/// Library-wide preference tie rule: higher rating first, then smaller item
/// id. Every component (per-user lists, group lists, bucket keys) uses this
/// ordering, which is what makes the greedy algorithms and the golden tests
/// deterministic.
inline bool PrefersEntry(const data::RatingEntry& a,
                         const data::RatingEntry& b) {
  if (a.rating != b.rating) return a.rating > b.rating;
  return a.item < b.item;
}

/// Folds one row cell into `top`, the best cells seen so far in
/// PrefersEntry order, keeping at most `k` (> 0) of them: a bounded
/// insertion. The caller visits the row in ascending item order (both
/// backends' VisitRow do), so an earlier cell wins every rating tie and
/// comparing ratings alone gives PrefersEntry's order.
inline void InsertTopK(std::vector<data::RatingEntry>& top, std::size_t k,
                       ItemId item, Rating rating) {
  GF_DCHECK(k > 0);
  std::size_t pos = top.size();
  if (pos == k) {
    if (rating <= top.back().rating) return;
    --pos;
  } else {
    top.emplace_back();
  }
  for (; pos > 0 && top[pos - 1].rating < rating; --pos) {
    top[pos] = top[pos - 1];
  }
  top[pos] = {item, rating};
}

/// The user's preference list L_u (§4.1): all rated items sorted by the tie
/// rule.
std::vector<data::RatingEntry> FullPreferenceList(
    const data::RatingStore& store, UserId user);

/// The user's top-k list L_u^k: the first min(k, d_u) entries of
/// FullPreferenceList, built by InsertTopK in one row visit.
std::vector<data::RatingEntry> TopKList(const data::RatingStore& store,
                                        UserId user, int k);

}  // namespace groupform::recsys

#endif  // GROUPFORM_RECSYS_PREFERENCE_LISTS_H_
