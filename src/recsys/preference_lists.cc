#include "recsys/preference_lists.h"

#include <algorithm>

#include "common/logging.h"

namespace groupform::recsys {

std::vector<data::RatingEntry> FullPreferenceList(
    const data::RatingStore& store, UserId user) {
  std::vector<data::RatingEntry> list;
  list.reserve(static_cast<std::size_t>(store.NumRatingsOf(user)));
  store.VisitRow(user, [&list](ItemId item, Rating rating) {
    list.push_back({item, rating});
  });
  std::sort(list.begin(), list.end(), PrefersEntry);
  return list;
}

std::vector<data::RatingEntry> TopKList(const data::RatingStore& store,
                                        UserId user, int k) {
  GF_CHECK_GT(k, 0);
  std::vector<data::RatingEntry> list;
  list.reserve(static_cast<std::size_t>(store.NumRatingsOf(user)));
  store.VisitRow(user, [&list](ItemId item, Rating rating) {
    list.push_back({item, rating});
  });
  const std::size_t keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), list.size());
  std::partial_sort(list.begin(), list.begin() + keep, list.end(),
                    PrefersEntry);
  list.resize(keep);
  return list;
}

}  // namespace groupform::recsys
