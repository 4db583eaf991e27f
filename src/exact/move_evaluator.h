#ifndef GROUPFORM_EXACT_MOVE_EVALUATOR_H_
#define GROUPFORM_EXACT_MOVE_EVALUATOR_H_

#include <numeric>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "core/formation.h"
#include "grouprec/group_scorer.h"

namespace groupform::exact {

/// A partition of the users 0..n−1 into member lists (some may be empty)
/// with each group's satisfaction.
struct ScoredPartition {
  std::vector<std::vector<UserId>> groups;
  std::vector<double> satisfaction;

  /// The satisfactions summed serially in group order, so the objective
  /// is thread-count-invariant.
  double Objective() const {
    return std::accumulate(satisfaction.begin(), satisfaction.end(), 0.0);
  }
};

/// Scores every group of `groups` in one core::ScoreGroups batch on the
/// shared pool.
ScoredPartition ScorePartition(const core::FormationProblem& problem,
                               const grouprec::GroupScorer& scorer,
                               std::vector<std::vector<UserId>> groups);

/// The search's start over problem.max_groups slots, scored: the greedy
/// seed's groups when `greedy` (the rng untouched), otherwise a balanced
/// random split dealt from one rng.Shuffle of the users.
common::StatusOr<ScoredPartition> SeedPartition(
    const core::FormationProblem& problem,
    const grouprec::GroupScorer& scorer, bool greedy, common::Rng& rng);

/// The search partition of LocalSearchSolver and SimulatedAnnealingSolver:
/// the member lists, each user's group, each group's satisfaction and
/// their sum. The solvers choose moves; the state scores candidates and
/// applies the chosen ones (DESIGN.md §10.3).
///
/// Scoring covers the groups a one-user move leaves behind — g+u (a
/// relocation target), g−v (a relocation source) and g−v+u (either side of
/// a swap). Every score equals core::ComputeGroupList +
/// core::AggregateListSatisfaction on the candidate's member list bit for
/// bit, with an empty group scoring 0 (tests/exact/move_evaluator_test.cc
/// is the oracle). Two paths, chosen by InDeltaScope(problem) alone:
///  * delta: under Least Misery over the full catalogue with `rmin`, or
///    `zero` on a scale with min >= 0, an item scores its members' minimum
///    when every member rated it and the policy's floor otherwise, so a
///    candidate is scored from its group's cached near-complete items
///    (rated by all but at most one member, with their rater count, minimum
///    and second-smallest rating) merged with the one or two moving rows;
///  * full: every other problem builds the candidate's member list in
///    per-thread scratch and scores it from scratch.
///
/// Remove/Add/Replace are const and safe to call concurrently. Relocate
/// and Swap edit the member lists with the same placement rule the
/// candidates were scored under, and refresh both groups' cached state
/// before returning.
class SearchState {
 public:
  /// Where a joining member is placed. localsearch sorts the whole list;
  /// sa inserts at the lower_bound of the group's current order. The two
  /// agree on sorted groups but not on a random split's unsorted ones, and
  /// AV sums follow member order, so each solver keeps its own placement.
  enum class Insert { kSortAll, kLowerBound };

  /// True when `problem` takes the delta path: Least Misery,
  /// candidate_depth 0, and `rmin`, or `zero` with scale.min >= 0.
  static bool InDeltaScope(const core::FormationProblem& problem);

  /// `problem` and `scorer` must outlive the state. `start` must partition
  /// every user of the problem. Builds the delta state of every group.
  SearchState(const core::FormationProblem& problem,
              const grouprec::GroupScorer& scorer, ScoredPartition start,
              Insert insert);

  std::span<const std::vector<UserId>> groups() const { return groups_; }
  /// Indexed by user id.
  std::span<const int> group_of() const { return group_of_; }
  std::span<const double> satisfaction() const { return satisfaction_; }
  double objective() const { return objective_; }

  /// Satisfaction of group g without `out` (a member of g).
  double Remove(int g, UserId out) const {
    return Score(g, out, kInvalidUser);
  }
  /// Satisfaction of group g with `in` (not a member of g) added.
  double Add(int g, UserId in) const { return Score(g, kInvalidUser, in); }
  /// Satisfaction of group g with member `out` exchanged for `in`.
  double Replace(int g, UserId out, UserId in) const {
    return Score(g, out, in);
  }

  /// Moves `u` from its group into group `to`, whose satisfactions become
  /// `from_sat` (Remove) and `to_sat` (Add).
  void Relocate(UserId u, int to, double from_sat, double to_sat);
  /// Exchanges `u` and `v`, members of different groups. u's group's
  /// satisfaction becomes `from_sat` (Replace(from, u, v)) and v's group's
  /// `to_sat` (Replace(to, v, u)).
  void Swap(UserId u, UserId v, double from_sat, double to_sat);

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

  /// Places `in` in `members` by the state's placement rule.
  void Place(std::vector<UserId>& members, UserId in) const;
  /// Records the satisfactions of the two groups a move changed, adds
  /// the move's gain to the objective and rebuilds both groups.
  void Commit(int from, int to, double from_sat, double to_sat);
  /// Refreshes group g's near-complete items (no-op on the full path).
  void Rebuild(int g);
  /// Satisfaction of group g − `out` + `in`; either may be kInvalidUser.
  double Score(int g, UserId out, UserId in) const;
  /// Aggregates the scores of a candidate's complete items (reordered in
  /// place) with every other catalogue item at the floor score.
  double Aggregate(std::vector<double>& complete) const;

  const core::FormationProblem& problem_;
  const grouprec::GroupScorer& scorer_;
  Insert insert_;
  bool delta_;
  /// The score of an item some member has not rated: r_min or 0.
  double floor_ = 0.0;
  std::vector<std::vector<UserId>> groups_;
  std::vector<int> group_of_;
  double objective_;  // initialised from `start` before satisfaction_
  std::vector<double> satisfaction_;
  /// Per group, its near-complete items in item order (groups of size
  /// >= 2 only; smaller groups are scored from their rows).
  std::vector<std::vector<NearItem>> near_;
};

}  // namespace groupform::exact

#endif  // GROUPFORM_EXACT_MOVE_EVALUATOR_H_
