#include "grouprec/weighted.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "common/logging.h"

namespace groupform::grouprec {

double UserNdcg(const data::RatingStore& store, UserId user,
                std::span<const ItemId> recommended, int k,
                MissingRatingPolicy missing) {
  GF_CHECK_GT(k, 0);
  const double r_min = store.scale().min;
  const auto relevance = [&](ItemId item) -> double {
    const auto r = store.GetRating(user, item);
    if (r.has_value()) return *r;
    switch (missing) {
      case MissingRatingPolicy::kScaleMin:
        return r_min;
      case MissingRatingPolicy::kZero:
        return 0.0;
      case MissingRatingPolicy::kSkipUser:
        return kMissingRating;
    }
    return r_min;
  };

  // DCG of the recommended list, truncated at k.
  double dcg = 0.0;
  int pos = 0;
  for (ItemId item : recommended) {
    if (pos >= k) break;
    const double rel = relevance(item);
    if (rel == kMissingRating) continue;  // kSkipUser: position not counted
    dcg += NdcgGain(rel) * NdcgDiscount(pos);
    ++pos;
  }

  // Ideal DCG: the user's own k highest ratings (rating desc, item asc).
  std::vector<double> ratings;
  ratings.reserve(static_cast<std::size_t>(store.NumRatingsOf(user)));
  store.VisitRow(user, [&ratings](ItemId, Rating rating) {
    ratings.push_back(rating);
  });
  std::sort(ratings.begin(), ratings.end(), std::greater<>());
  double idcg = 0.0;
  for (int j = 0; j < k && j < static_cast<int>(ratings.size()); ++j) {
    idcg += NdcgGain(ratings[static_cast<std::size_t>(j)]) * NdcgDiscount(j);
  }
  if (idcg <= 0.0) return 0.0;
  return dcg / idcg;
}

}  // namespace groupform::grouprec
