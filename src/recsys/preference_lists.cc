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
  const auto k_size = static_cast<std::size_t>(k);
  std::vector<data::RatingEntry> list;
  list.reserve(std::min<std::size_t>(
      k_size, static_cast<std::size_t>(store.NumRatingsOf(user))));
  store.VisitRow(user, [&list, k_size](ItemId item, Rating rating) {
    InsertTopK(list, k_size, item, rating);
  });
  return list;
}

}  // namespace groupform::recsys
