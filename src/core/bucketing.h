#ifndef GROUPFORM_CORE_BUCKETING_H_
#define GROUPFORM_CORE_BUCKETING_H_

#include <span>
#include <vector>

#include "common/hash.h"
#include "core/formation.h"
#include "data/rating_matrix.h"
#include "grouprec/group_scorer.h"

namespace groupform::core {

/// The intermediate-group machinery shared by GreedyFormer (one-shot) and
/// IncrementalFormer (online): bucket keys, per-bucket score accumulation,
/// and the deterministic bucket ordering. See greedy.h for the semantics
/// of each key shape.

/// Bucket key: the shared part of members' top-k lists. For LM it includes
/// the ratings the bucket must agree on; for AV only the item sequence.
struct BucketKey {
  std::vector<ItemId> items;
  std::vector<Rating> ratings;  // empty for AV keys

  friend bool operator==(const BucketKey&, const BucketKey&) = default;
};

struct BucketKeyHash {
  std::size_t operator()(const BucketKey& key) const;
};

/// An intermediate group: users indistinguishable under the bucket key.
struct Bucket {
  std::vector<UserId> members;
  /// Items of the shared top-k sequence (may be shorter than k).
  std::vector<ItemId> seq_items;
  /// Per-position group score of the shared sequence: min over members
  /// (LM) or sum over members (AV) of the position's rating.
  std::vector<double> seq_scores;
};

/// Builds the bucket key of a user whose top-k list is `topk`, under the
/// problem's semantics and aggregation.
BucketKey MakeBucketKey(const FormationProblem& problem,
                        std::span<const data::RatingEntry> topk);

/// Folds one member's top-k list into the bucket accumulators. The first
/// member initialises seq_items/seq_scores; later members must share the
/// key (callers group by MakeBucketKey first).
void AccumulateMember(const FormationProblem& problem,
                      std::span<const data::RatingEntry> topk,
                      Bucket& bucket);

/// The bucket's satisfaction score under the problem's aggregation,
/// accounting for sequences shorter than k.
double BucketScore(const FormationProblem& problem, const Bucket& bucket);

/// Deterministic bucket ordering for the selection step: score desc, then
/// lexicographically greater score vector, then larger bucket, then
/// smaller first member (golden-tested against the paper's examples).
bool BucketBetter(const std::pair<double, const Bucket*>& a,
                  const std::pair<double, const Bucket*>& b);

/// The presentation list of a selected bucket (exact group scores).
grouprec::GroupTopK BucketRecommendation(const FormationProblem& problem,
                                         const grouprec::GroupScorer& scorer,
                                         const Bucket& bucket);

/// Steps 2 and 3 of the greedy framework, shared by GreedyFormer and
/// IncrementalFormer: selects the best ell-1 group slots from the scored
/// buckets (with LM bucket splitting — see greedy.h), assembles the
/// residual group, and totals the objective. The caller sets the result's
/// algorithm label. `problem` must pass Validate() (max_groups >= 1), and
/// `scored` entries must point at buckets that outlive the call.
FormationResult SelectAndAssemble(
    const FormationProblem& problem, const grouprec::GroupScorer& scorer,
    std::vector<std::pair<double, const Bucket*>> scored);

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_BUCKETING_H_
