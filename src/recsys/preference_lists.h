#ifndef GROUPFORM_RECSYS_PREFERENCE_LISTS_H_
#define GROUPFORM_RECSYS_PREFERENCE_LISTS_H_

#include <vector>

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

/// The user's preference list L_u (§4.1): all rated items sorted by the tie
/// rule.
std::vector<data::RatingEntry> FullPreferenceList(
    const data::RatingStore& store, UserId user);

/// The user's top-k list L_u^k. Returns fewer than k entries when the user
/// rated fewer than k items.
std::vector<data::RatingEntry> TopKList(const data::RatingStore& store,
                                        UserId user, int k);

}  // namespace groupform::recsys

#endif  // GROUPFORM_RECSYS_PREFERENCE_LISTS_H_
