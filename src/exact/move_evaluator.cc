#include "exact/move_evaluator.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "core/greedy.h"
#include "data/rating_store.h"

namespace groupform::exact {
namespace {

/// One item's ratings within a group being rebuilt.
struct Tally {
  int raters = 0;
  Rating min = std::numeric_limits<Rating>::infinity();
  Rating second = std::numeric_limits<Rating>::infinity();
};

/// Per-thread scratch for scoring one candidate or rebuilding one group.
struct Scratch {
  /// The candidate's complete-item scores (delta path).
  std::vector<double> complete;
  /// Dequantized rows on the compact backend; unused on the dense one,
  /// whose rows are zero-copy.
  std::vector<data::RatingEntry> row_in;
  std::vector<data::RatingEntry> row_out;
  /// The candidate's member list (full path).
  std::vector<UserId> members;
  /// Rebuild's per-item tallies, indexed by item id and grown to the
  /// largest catalogue seen. Between rebuilds every slot holds Tally{}:
  /// a rebuild resets exactly the slots it lists in `touched`.
  std::vector<Tally> tallies;
  std::vector<ItemId> touched;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Advances `at` to the first entry of `row` at or after `item` and
/// returns that entry when it rates `item`.
const data::RatingEntry* Seek(std::span<const data::RatingEntry> row,
                              std::size_t& at, ItemId item) {
  while (at < row.size() && row[at].item < item) ++at;
  return at < row.size() && row[at].item == item ? &row[at] : nullptr;
}

/// Takes `user` (a member) out of `members`, keeping the others' order.
void Erase(std::vector<UserId>& members, UserId user) {
  const auto at = std::find(members.begin(), members.end(), user);
  GF_CHECK(at != members.end());
  members.erase(at);
}

}  // namespace

ScoredPartition ScorePartition(const core::FormationProblem& problem,
                               const grouprec::GroupScorer& scorer,
                               std::vector<std::vector<UserId>> groups) {
  ScoredPartition partition;
  const std::vector<core::GroupScore> scores =
      core::ScoreGroups(problem, scorer, groups);
  for (const core::GroupScore& score : scores) {
    partition.satisfaction.push_back(score.satisfaction);
  }
  partition.groups = std::move(groups);
  return partition;
}

common::StatusOr<ScoredPartition> SeedPartition(
    const core::FormationProblem& problem,
    const grouprec::GroupScorer& scorer, bool greedy, common::Rng& rng) {
  std::vector<std::vector<UserId>> groups(
      static_cast<std::size_t>(problem.max_groups));
  if (greedy) {
    GF_ASSIGN_OR_RETURN(auto seed, core::RunGreedy(problem));
    for (std::size_t g = 0; g < seed.groups.size(); ++g) {
      groups[g] = std::move(seed.groups[g].members);
    }
  } else {
    std::vector<UserId> order(
        static_cast<std::size_t>(problem.Store().num_users()));
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      groups[i % groups.size()].push_back(order[i]);
    }
  }
  return ScorePartition(problem, scorer, std::move(groups));
}

bool SearchState::InDeltaScope(const core::FormationProblem& problem) {
  if (problem.semantics != grouprec::Semantics::kLeastMisery ||
      problem.candidate_depth != 0) {
    return false;
  }
  // Ratings lie in the scale, so under `zero` with min >= 0 an incomplete
  // item's min(observed minimum, 0) is always the floor 0.
  return problem.missing == grouprec::MissingRatingPolicy::kScaleMin ||
         (problem.missing == grouprec::MissingRatingPolicy::kZero &&
          problem.Store().scale().min >= 0.0);
}

SearchState::SearchState(const core::FormationProblem& problem,
                         const grouprec::GroupScorer& scorer,
                         ScoredPartition start, Insert insert)
    : problem_(problem),
      scorer_(scorer),
      insert_(insert),
      delta_(InDeltaScope(problem)),
      groups_(std::move(start.groups)),
      group_of_(static_cast<std::size_t>(problem.Store().num_users()), 0),
      objective_(start.Objective()),
      satisfaction_(std::move(start.satisfaction)) {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (const UserId u : groups_[g]) {
      group_of_[static_cast<std::size_t>(u)] = static_cast<int>(g);
    }
  }
  if (!delta_) return;
  floor_ = problem.missing == grouprec::MissingRatingPolicy::kScaleMin
               ? problem.Store().scale().min
               : 0.0;
  near_.resize(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Rebuild(static_cast<int>(g));
  }
}

void SearchState::Place(std::vector<UserId>& members, UserId in) const {
  if (insert_ == Insert::kSortAll) {
    members.push_back(in);
    std::sort(members.begin(), members.end());
  } else {
    members.insert(std::lower_bound(members.begin(), members.end(), in),
                   in);
  }
}

void SearchState::Relocate(UserId u, int to, double from_sat,
                           double to_sat) {
  const int from = group_of_[static_cast<std::size_t>(u)];
  Erase(groups_[static_cast<std::size_t>(from)], u);
  Place(groups_[static_cast<std::size_t>(to)], u);
  group_of_[static_cast<std::size_t>(u)] = to;
  Commit(from, to, from_sat, to_sat);
}

void SearchState::Swap(UserId u, UserId v, double from_sat, double to_sat) {
  const int from = group_of_[static_cast<std::size_t>(u)];
  const int to = group_of_[static_cast<std::size_t>(v)];
  std::vector<UserId>& src = groups_[static_cast<std::size_t>(from)];
  std::vector<UserId>& dst = groups_[static_cast<std::size_t>(to)];
  Erase(src, u);
  Place(src, v);
  Erase(dst, v);
  Place(dst, u);
  group_of_[static_cast<std::size_t>(u)] = to;
  group_of_[static_cast<std::size_t>(v)] = from;
  Commit(from, to, from_sat, to_sat);
}

void SearchState::Commit(int from, int to, double from_sat,
                         double to_sat) {
  double& from_slot = satisfaction_[static_cast<std::size_t>(from)];
  double& to_slot = satisfaction_[static_cast<std::size_t>(to)];
  objective_ += (from_sat + to_sat) - (from_slot + to_slot);
  from_slot = from_sat;
  to_slot = to_sat;
  Rebuild(from);
  Rebuild(to);
}

void SearchState::Rebuild(int g) {
  if (!delta_) return;
  const std::vector<UserId>& members = groups_[static_cast<std::size_t>(g)];
  std::vector<NearItem>& near = near_[static_cast<std::size_t>(g)];
  near.clear();
  const int m = static_cast<int>(members.size());
  if (m < 2) return;
  Scratch& scratch = ThreadScratch();
  const data::RatingStore& store = scorer_.store();
  const auto num_items = static_cast<std::size_t>(store.num_items());
  if (scratch.tallies.size() < num_items) {
    scratch.tallies.resize(num_items);
    // Full capacity up front: the push_back below never reallocates, so
    // a rebuild cannot throw halfway and leave tallies set.
    scratch.touched.reserve(num_items);
  }
  std::vector<Tally>& tallies = scratch.tallies;
  std::vector<ItemId>& touched = scratch.touched;
  for (const UserId u : members) {
    store.VisitRow(u, [&tallies, &touched](ItemId item, Rating rating) {
      Tally& tally = tallies[static_cast<std::size_t>(item)];
      if (tally.raters++ == 0) touched.push_back(item);
      // Branch-free: the second-smallest of {min, second, rating} is
      // min(second, max(min, rating)).
      tally.second = std::min(tally.second, std::max(tally.min, rating));
      tally.min = std::min(tally.min, rating);
    });
  }
  // A near-complete item misses at most one member, so the first two
  // members' rows, merged, list every such item in item order.
  const auto first = store.Row(members[0], scratch.row_in);
  const auto second = store.Row(members[1], scratch.row_out);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < first.size() || j < second.size()) {
    const ItemId item =
        j == second.size() ||
                (i < first.size() && first[i].item < second[j].item)
            ? first[i].item
            : second[j].item;
    if (i < first.size() && first[i].item == item) ++i;
    if (j < second.size() && second[j].item == item) ++j;
    const Tally& tally = tallies[static_cast<std::size_t>(item)];
    if (tally.raters >= m - 1) {
      near.push_back({item, tally.raters, tally.min, tally.second});
    }
  }
  for (const ItemId item : touched) {
    tallies[static_cast<std::size_t>(item)] = Tally{};
  }
  touched.clear();
}

double SearchState::Score(int g, UserId out, UserId in) const {
  const std::vector<UserId>& members = groups_[static_cast<std::size_t>(g)];
  Scratch& scratch = ThreadScratch();
  if (!delta_) {
    std::vector<UserId>& candidate = scratch.members;
    candidate.assign(members.begin(), members.end());
    if (out != kInvalidUser) Erase(candidate, out);
    if (in != kInvalidUser) Place(candidate, in);
    return core::ScoreGroup(problem_, scorer_, candidate).satisfaction;
  }

  const int stayers = static_cast<int>(members.size()) -
                      static_cast<int>(out != kInvalidUser);
  const int size = stayers + static_cast<int>(in != kInvalidUser);
  if (size == 0) return 0.0;
  const data::RatingStore& store = scorer_.store();
  const std::span<const data::RatingEntry> row_in =
      in != kInvalidUser ? store.Row(in, scratch.row_in)
                         : std::span<const data::RatingEntry>();
  std::vector<double>& complete = scratch.complete;
  complete.clear();
  if (stayers == 0) {
    // `in` alone: its own row.
    for (const data::RatingEntry& e : row_in) complete.push_back(e.rating);
    return Aggregate(complete);
  }
  if (members.size() == 1) {
    // The one member, joined by `in`: groups below two keep no state.
    const auto row_member = store.Row(members.front(), scratch.row_out);
    std::size_t at = 0;
    for (const data::RatingEntry& e : row_member) {
      if (const data::RatingEntry* rated = Seek(row_in, at, e.item)) {
        complete.push_back(std::min(e.rating, rated->rating));
      }
    }
    return Aggregate(complete);
  }
  // An item is complete in the candidate when its raters after the move
  // equal the candidate's size. Only g's near-complete items can get
  // there: a move changes a rater count by at most one.
  const std::span<const data::RatingEntry> row_out =
      out != kInvalidUser ? store.Row(out, scratch.row_out)
                          : std::span<const data::RatingEntry>();
  std::size_t at_out = 0;
  std::size_t at_in = 0;
  for (const NearItem& e : near_[static_cast<std::size_t>(g)]) {
    const data::RatingEntry* rated_out = Seek(row_out, at_out, e.item);
    const data::RatingEntry* rated_in = Seek(row_in, at_in, e.item);
    const int raters = e.raters - static_cast<int>(rated_out != nullptr) +
                       static_cast<int>(rated_in != nullptr);
    if (raters != size) continue;
    // The minimum is exact, so `out` held it exactly when its rating
    // equals it; the stayers' minimum is then the second-smallest.
    Rating score = rated_out != nullptr && rated_out->rating == e.min
                       ? e.second
                       : e.min;
    if (rated_in != nullptr) score = std::min(score, rated_in->rating);
    complete.push_back(score);
  }
  return Aggregate(complete);
}

double SearchState::Aggregate(std::vector<double>& complete) const {
  // The full path's list is the catalogue's top min(k, items) under the
  // score order; by value that is the complete scores merged with the
  // floor scores of the other items, descending. Max reads its first
  // value, Min its last, and Sum adds them in list order.
  const auto num_items = static_cast<std::size_t>(scorer_.store().num_items());
  const std::size_t top =
      std::min(static_cast<std::size_t>(problem_.k), num_items);
  const std::size_t keep = std::min(top, complete.size());
  std::partial_sort(complete.begin(),
                    complete.begin() + static_cast<std::ptrdiff_t>(keep),
                    complete.end(), std::greater<double>());
  std::size_t floors = num_items - complete.size();
  std::size_t next = 0;
  double value = 0.0;
  double sum = 0.0;
  for (std::size_t position = 0; position < top; ++position) {
    if (next < keep && (floors == 0 || complete[next] >= floor_)) {
      value = complete[next++];
    } else {
      value = floor_;
      --floors;
    }
    if (problem_.aggregation == grouprec::Aggregation::kMax) return value;
    sum += value;
  }
  return problem_.aggregation == grouprec::Aggregation::kSum ? sum : value;
}

}  // namespace groupform::exact
