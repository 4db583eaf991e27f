#include "grouprec/group_scorer.h"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.h"

namespace groupform::grouprec {
namespace {

/// Per-item accumulator across group members.
struct Accum {
  int raters = 0;
  double min = std::numeric_limits<double>::infinity();
  double sum = 0.0;
};

/// Resolves one item's accumulated ratings into its group score under the
/// semantics/missing policy. Shared by every entry point so they can never
/// drift apart; an item no member rated resolves Accum{}.
double ScoreFromAccum(const Accum& acc, int group_size,
                      const GroupScorer::Options& options, double r_min) {
  // A zero-size group (precondition violation upstream) must not count as
  // "complete": acc.min would be the +inf sentinel and leak out.
  const bool complete = acc.raters == group_size && group_size > 0;
  switch (options.missing) {
    case MissingRatingPolicy::kScaleMin:
      if (options.semantics == Semantics::kLeastMisery) {
        return complete ? acc.min : r_min;
      }
      return acc.sum +
             static_cast<double>(group_size - acc.raters) * r_min;
    case MissingRatingPolicy::kZero:
      if (options.semantics == Semantics::kLeastMisery) {
        // A missing member contributes 0, which caps the min whenever the
        // item is incomplete (in-scale ratings can still be negative on
        // exotic scales, hence the std::min).
        if (acc.raters == 0) return 0.0;
        return complete ? acc.min : std::min(acc.min, 0.0);
      }
      return acc.sum;
    case MissingRatingPolicy::kSkipUser:
      if (acc.raters == 0) return r_min;
      return options.semantics == Semantics::kLeastMisery ? acc.min
                                                          : acc.sum;
  }
  return r_min;
}

/// Per-thread dense accumulator scratch, indexed by item id and grown to
/// the largest catalogue this thread has scored. Between calls every slot
/// holds Accum{}: a call records the slots it touches and resets only
/// those, so no call pays O(catalogue).
struct Scratch {
  std::vector<Accum> accums;
  std::vector<ItemId> touched;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Accumulates the group's ratings into this thread's scratch for the
/// lifetime of the scope. Members are visited in group order, so each
/// item's min/sum is accumulated in the same order by every entry point
/// and the scores are bit-identical across them.
class ScratchScope {
 public:
  ScratchScope(const data::RatingStore& store, std::span<const UserId> group)
      : scratch_(ThreadScratch()) {
    const auto num_items = static_cast<std::size_t>(store.num_items());
    if (scratch_.accums.size() < num_items) {
      scratch_.accums.resize(num_items);
      // Full capacity up front: the push_back below never reallocates, so
      // accumulation cannot throw and leave slots dirty.
      scratch_.touched.reserve(num_items);
    }
    std::vector<Accum>& accums = scratch_.accums;
    std::vector<ItemId>& touched = scratch_.touched;
    for (UserId u : group) {
      store.VisitRow(u, [&accums, &touched](ItemId item, Rating rating) {
        Accum& acc = accums[static_cast<std::size_t>(item)];
        if (acc.raters++ == 0) touched.push_back(item);
        acc.min = std::min(acc.min, rating);
        acc.sum += rating;
      });
    }
  }
  ~ScratchScope() {
    for (ItemId item : scratch_.touched) {
      scratch_.accums[static_cast<std::size_t>(item)] = Accum{};
    }
    scratch_.touched.clear();
  }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  /// Scratch slots; ids below size() are valid for at().
  std::size_t size() const { return scratch_.accums.size(); }
  const Accum& at(ItemId item) const {
    return scratch_.accums[static_cast<std::size_t>(item)];
  }
  /// Items rated by at least one member, in first-visit order.
  std::span<const ItemId> touched() const { return scratch_.touched; }

 private:
  Scratch& scratch_;
};

/// Truncates `scored` to its best min(k, size) items under the library
/// tie rule, in order.
void KeepTopK(std::vector<ScoredItem>& scored, int k) {
  const std::size_t keep =
      std::min<std::size_t>(static_cast<std::size_t>(k), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    BetterScoredItem);
  scored.resize(keep);
}

}  // namespace

GroupScorer::GroupScorer(data::RatingStore store, Options options)
    : store_(store), options_(options) {}

double GroupScorer::ItemScore(std::span<const UserId> group,
                              ItemId item) const {
  GF_DCHECK(!group.empty());
  // Accumulate observed ratings only and let ScoreFromAccum resolve the
  // missing policy — the same arithmetic as TopK/TopKAllItems, so all
  // three entry points agree bit for bit.
  Accum acc;
  for (UserId u : group) {
    const auto rating = store_.GetRating(u, item);
    if (!rating.has_value()) continue;
    ++acc.raters;
    acc.min = std::min(acc.min, *rating);
    acc.sum += *rating;
  }
  return ScoreFromAccum(acc, static_cast<int>(group.size()), options_,
                        store_.scale().min);
}

GroupTopK GroupScorer::TopK(std::span<const UserId> group, int k,
                            std::span<const ItemId> candidates) const {
  GF_CHECK_GT(k, 0);
  GroupTopK result;
  if (group.empty() || candidates.empty()) return result;

  const ScratchScope scope(store_, group);
  const int group_size = static_cast<int>(group.size());
  const double r_min = store_.scale().min;
  const Accum untouched;
  std::vector<ScoredItem>& scored = result.items;
  scored.reserve(candidates.size());
  for (ItemId item : candidates) {
    // Ids outside the catalogue are unrated by every member.
    const Accum& acc = static_cast<std::size_t>(item) < scope.size()
                           ? scope.at(item)
                           : untouched;
    scored.push_back({item, ScoreFromAccum(acc, group_size, options_, r_min)});
  }
  KeepTopK(scored, k);
  return result;
}

GroupTopK GroupScorer::TopKAllItems(std::span<const UserId> group,
                                    int k) const {
  GF_CHECK_GT(k, 0);
  GroupTopK result;
  const ItemId num_items = store_.num_items();
  if (group.empty() || num_items == 0) return result;

  const ScratchScope scope(store_, group);
  const int group_size = static_cast<int>(group.size());
  const double r_min = store_.scale().min;
  std::vector<ScoredItem>& scored = result.items;
  scored.reserve(scope.touched().size() +
                 std::min(static_cast<std::size_t>(k), scope.size()));
  for (ItemId item : scope.touched()) {
    scored.push_back(
        {item, ScoreFromAccum(scope.at(item), group_size, options_, r_min)});
  }
  // Every untouched item scores the same constant, and the tie rule
  // prefers lower ids, so only the k lowest-id untouched items can enter
  // the top-k. Finding them skips at most |touched| slots.
  const double untouched_score =
      ScoreFromAccum(Accum{}, group_size, options_, r_min);
  int filled = 0;
  for (ItemId item = 0; item < num_items && filled < k; ++item) {
    if (scope.at(item).raters != 0) continue;
    scored.push_back({item, untouched_score});
    ++filled;
  }
  KeepTopK(scored, k);
  return result;
}

GroupTopK GroupScorer::TopKUnionCandidates(std::span<const UserId> group,
                                           int k, int depth) const {
  GF_CHECK_GE(depth, 1);
  // Union of each member's top-`depth` personal items, where "top" uses the
  // library tie rule (rating desc, item asc).
  std::vector<ItemId> candidates;
  std::vector<data::RatingEntry> row_copy;
  std::vector<data::RatingEntry> scratch;
  for (UserId u : group) {
    const auto row = store_.Row(u, scratch);
    row_copy.assign(row.begin(), row.end());
    const std::size_t keep =
        std::min<std::size_t>(static_cast<std::size_t>(depth),
                              row_copy.size());
    std::partial_sort(row_copy.begin(), row_copy.begin() + keep,
                      row_copy.end(),
                      [](const data::RatingEntry& a,
                         const data::RatingEntry& b) {
                        if (a.rating != b.rating) return a.rating > b.rating;
                        return a.item < b.item;
                      });
    for (std::size_t i = 0; i < keep; ++i) {
      candidates.push_back(row_copy[i].item);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return TopK(group, k, candidates);
}

double GroupScorer::AggregateSatisfaction(const GroupTopK& list,
                                          Aggregation aggregation) {
  if (list.empty()) return 0.0;
  switch (aggregation) {
    case Aggregation::kMax:
      return list.items.front().score;
    case Aggregation::kMin:
      return list.items.back().score;
    case Aggregation::kSum: {
      double sum = 0.0;
      for (const auto& si : list.items) sum += si.score;
      return sum;
    }
  }
  return 0.0;
}

}  // namespace groupform::grouprec
