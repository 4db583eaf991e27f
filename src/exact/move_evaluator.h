#ifndef GROUPFORM_EXACT_MOVE_EVALUATOR_H_
#define GROUPFORM_EXACT_MOVE_EVALUATOR_H_

#include <span>
#include <vector>

#include "common/types.h"
#include "core/formation.h"
#include "grouprec/group_scorer.h"

namespace groupform::exact {

/// Scores the groups a one-user move leaves behind — g+u (a relocation
/// target), g−v (a relocation source) and g−v+u (either side of a swap) —
/// for LocalSearchSolver and SimulatedAnnealingSolver. Every score equals
/// core::ComputeGroupList + core::AggregateListSatisfaction on the
/// candidate's member list bit for bit, with an empty group scoring 0
/// (tests/exact/move_evaluator_test.cc is the oracle).
///
/// Two paths, chosen by InDeltaScope(problem) alone (DESIGN.md §10.3):
///  * delta: under Least Misery over the full catalogue with `rmin`, or
///    `zero` on a scale with min >= 0, an item scores its members' minimum
///    when every member rated it and the policy's floor otherwise, so a
///    candidate is scored from its group's cached near-complete items
///    (rated by all but at most one member, with their rater count, minimum
///    and second-smallest rating) merged with the one or two moving rows;
///  * full: every other problem builds the candidate's member list in
///    per-thread scratch and scores it from scratch.
///
/// The evaluator reads the caller's live partition through `groups`; after
/// any change to groups[g], Rebuild(g) must run before g is scored again.
/// Remove/Add/Replace are const and safe to call concurrently.
class MoveEvaluator {
 public:
  /// Where the full path places an incoming member. localsearch sorts the
  /// whole candidate; sa inserts at the lower_bound of the group's current
  /// order. The two agree on sorted groups but not on a random split's
  /// unsorted ones, and AV sums follow member order, so each solver keeps
  /// its own placement.
  enum class Insert { kSortAll, kLowerBound };

  /// True when `problem` takes the delta path: Least Misery,
  /// candidate_depth 0, and `rmin`, or `zero` with scale.min >= 0.
  static bool InDeltaScope(const core::FormationProblem& problem);

  /// `problem`, `scorer` and `groups` must outlive the evaluator. Builds
  /// the delta state of every group.
  MoveEvaluator(const core::FormationProblem& problem,
                const grouprec::GroupScorer& scorer,
                std::span<const std::vector<UserId>> groups, Insert insert);

  /// Refreshes group g's cached state from groups[g] (no-op on the full
  /// path).
  void Rebuild(int g);

  /// Satisfaction of groups[g] without `out` (a member of g).
  double Remove(int g, UserId out) const;
  /// Satisfaction of groups[g] with `in` (not a member of g) added.
  double Add(int g, UserId in) const;
  /// Satisfaction of groups[g] with member `out` exchanged for `in`.
  double Replace(int g, UserId out, UserId in) const;

 private:
  /// One near-complete item of a group of size m >= 2: rated by m or
  /// m − 1 members. `second` is the second-smallest rating (+inf when a
  /// single member rated the item).
  struct NearItem {
    ItemId item = kInvalidItem;
    int raters = 0;
    Rating min = 0.0;
    Rating second = 0.0;
  };

  /// Satisfaction of groups[g] − `out` + `in`; either may be
  /// kInvalidUser.
  double Score(int g, UserId out, UserId in) const;
  /// Aggregates the scores of a candidate's complete items (reordered in
  /// place) with every other catalogue item at the floor score.
  double Aggregate(std::vector<double>& complete) const;

  const core::FormationProblem& problem_;
  const grouprec::GroupScorer& scorer_;
  std::span<const std::vector<UserId>> groups_;
  Insert insert_;
  bool delta_;
  /// The score of an item some member has not rated: r_min or 0.
  double floor_ = 0.0;
  /// Per group, its near-complete items in item order (groups of size
  /// >= 2 only; smaller groups are scored from their rows).
  std::vector<std::vector<NearItem>> near_;
};

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_MOVE_EVALUATOR_H_
