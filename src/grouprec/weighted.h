#ifndef GROUPFORM_GROUPREC_WEIGHTED_H_
#define GROUPFORM_GROUPREC_WEIGHTED_H_

#include <cmath>
#include <span>

#include "data/rating_store.h"
#include "grouprec/semantics.h"

namespace groupform::grouprec {

/// The NDCG gain of a graded relevance: 2^rel - 1.
inline double NdcgGain(double relevance) {
  return std::exp2(relevance) - 1.0;
}

/// The NDCG discount of 0-based list position `pos`: 1 / log2(pos + 2).
inline double NdcgDiscount(int pos) {
  return 1.0 / std::log2(static_cast<double>(pos) + 2.0);
}

/// NDCG-based per-user satisfaction (§6, "Weights at the user level").
/// Gains use the graded-relevance form (2^rel - 1); positions are
/// discounted by log2(pos + 2). The ideal list is the user's own top-k
/// (library tie rule), so a fully matched list scores exactly 1. Items the
/// user has not rated take relevance r_min, 0, or are skipped, per
/// `missing`.
double UserNdcg(const data::RatingStore& store, UserId user,
                std::span<const ItemId> recommended, int k,
                MissingRatingPolicy missing = MissingRatingPolicy::kScaleMin);

}  // namespace groupform::grouprec

#endif  // GROUPFORM_GROUPREC_WEIGHTED_H_
