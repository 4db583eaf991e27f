#ifndef GROUPFORM_GROUPREC_GROUP_SCORER_H_
#define GROUPFORM_GROUPREC_GROUP_SCORER_H_

#include <span>
#include <vector>

#include "data/rating_store.h"
#include "grouprec/semantics.h"

namespace groupform::grouprec {

/// One item with its group score.
struct ScoredItem {
  ItemId item = kInvalidItem;
  double score = 0.0;

  friend bool operator==(const ScoredItem&, const ScoredItem&) = default;
};

/// A group's recommended top-k list: items sorted by group score descending,
/// rating ties broken by ascending item id (the library-wide tie rule).
/// May hold fewer than k items when the candidate pool is smaller.
struct GroupTopK {
  std::vector<ScoredItem> items;

  bool empty() const { return items.empty(); }
  int size() const { return static_cast<int>(items.size()); }
};

/// The library-wide scored-item ordering: score descending, ties broken
/// by ascending item id. A strict total order over distinct items — the
/// one definition shared by every top-k producer.
inline bool BetterScoredItem(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// Computes group scores and group top-k recommendations for arbitrary
/// groups under a chosen semantics (§2.2). This is the "existing group
/// recommender" the formation algorithms plug into: it serves the greedy
/// algorithms' residual group, the clustering baselines, the exact solvers,
/// and all evaluation metrics.
class GroupScorer {
 public:
  struct Options {
    Semantics semantics = Semantics::kLeastMisery;
    MissingRatingPolicy missing = MissingRatingPolicy::kScaleMin;
  };

  /// The backing matrix (dense or compact — RatingStore converts
  /// implicitly from either) must outlive the scorer.
  GroupScorer(data::RatingStore store, Options options);

  const Options& options() const { return options_; }
  const data::RatingStore& store() const { return store_; }

  /// sc(g, i): the group score of one item (Definitions 1 and 2).
  /// O(|g| log d̄) via per-user binary searches.
  double ItemScore(std::span<const UserId> group, ItemId item) const;

  /// The group's top-k list over an explicit candidate item set (any
  /// order; ids outside the catalogue score as unrated).
  /// O(R_g + C log k) where R_g is the total number of ratings held by
  /// group members and C the candidate count.
  GroupTopK TopK(std::span<const UserId> group, int k,
                 std::span<const ItemId> candidates) const;

  /// Top-k over the full catalogue [0, num_items), bit-identical to TopK
  /// over the explicit list {0, ..., num_items - 1} but without per-call
  /// O(catalogue) work: O(R_g + T log k) for the T items some member rated
  /// (DESIGN.md §10.3). Items no member rated share one constant score,
  /// so only the k lowest-id ones are considered.
  GroupTopK TopKAllItems(std::span<const UserId> group, int k) const;

  /// Top-k over the union of each member's `depth` personally-highest-rated
  /// items — the truncated candidate policy the paper describes for the
  /// greedy algorithms' final group ("sifts through the top-k items per
  /// user"). depth >= k is recommended.
  GroupTopK TopKUnionCandidates(std::span<const UserId> group, int k,
                                int depth) const;

  /// gs(I_k): aggregates a recommended list into the group's satisfaction
  /// score under `aggregation` (§2.3). For kMin the bottom item is the last
  /// element of the (possibly short) list; an empty list scores 0.
  static double AggregateSatisfaction(const GroupTopK& list,
                                      Aggregation aggregation);

 private:
  data::RatingStore store_;
  Options options_;
};

}  // namespace groupform::grouprec

#endif  // GROUPFORM_GROUPREC_GROUP_SCORER_H_
