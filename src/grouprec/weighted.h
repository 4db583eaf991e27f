#ifndef GROUPFORM_GROUPREC_WEIGHTED_H_
#define GROUPFORM_GROUPREC_WEIGHTED_H_

#include <cmath>
#include <span>
#include <vector>

#include "data/rating_store.h"
#include "grouprec/group_scorer.h"

namespace groupform::grouprec {

/// Positional weighting schemes for the Weighted-Sum extension (§6,
/// "Weights at the item list level").
enum class PositionWeighting {
  /// w_j = 1 for every position — plain Sum aggregation.
  kUniform,
  /// w_j = 1 / (j + 1) for 0-based position j.
  kInversePosition,
  /// w_j = 1 / log2(j + 2) — DCG-style discounting.
  kLogInverse,
};

/// The weight of 0-based list position `pos` under `scheme`.
double PositionWeight(PositionWeighting scheme, int pos);

/// Weighted-Sum group satisfaction over a recommended list:
/// sum_j w_j * sc(g, i^j). With kUniform this equals Sum aggregation.
double WeightedSumSatisfaction(const GroupTopK& list,
                               PositionWeighting scheme);

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

/// Group satisfaction under §6's user-level weighting: per-user NDCG values
/// combined with the group semantics (LM = min of member NDCGs, AV = sum).
double GroupNdcgSatisfaction(const data::RatingStore& store,
                             std::span<const UserId> group,
                             std::span<const ItemId> recommended, int k,
                             Semantics semantics,
                             MissingRatingPolicy missing =
                                 MissingRatingPolicy::kScaleMin);

}  // namespace groupform::grouprec

#endif  // GROUPFORM_GROUPREC_WEIGHTED_H_
