// exact::SearchState (DESIGN.md §10.3) against its oracle: on seeded
// random partitions, every Remove / Add / Replace equals
// core::ComputeGroupList + core::AggregateListSatisfaction on the
// candidate's member list, with exact ==. The delta path is covered under
// rmin and zero, Max/Min/Sum, the dense and both compact backends, target
// groups of size 0, 1 and 2, shared item minima, ratings at scale.min and
// lists with fewer complete items than k. After every applied Relocate or
// Swap the state must equal one built fresh from the expected member
// lists: member order, group_of, satisfactions and every score exactly,
// the objective within 1e-9 relative. Out-of-scope problems must take the
// full path, under both placement rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/formation.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "exact/move_evaluator.h"

namespace groupform {
namespace {

using core::FormationProblem;
using exact::SearchState;
using grouprec::Aggregation;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;
using Insert = SearchState::Insert;

/// A random matrix with ratings on a half-point grid over `scale`, dense
/// enough that large groups keep complete items, and with a bias towards
/// scale.min so minima are often shared.
data::RatingMatrix RandomMatrix(std::int32_t users, std::int32_t items,
                                double density, data::RatingScale scale,
                                std::uint64_t seed) {
  common::Rng rng(seed);
  data::RatingMatrixBuilder builder(users, items, scale);
  const auto steps =
      static_cast<std::uint64_t>((scale.max - scale.min) * 2.0) + 1;
  for (UserId u = 0; u < users; ++u) {
    for (ItemId i = 0; i < items; ++i) {
      if (rng.NextDouble() >= density) continue;
      const double rating =
          rng.NextDouble() < 0.2
              ? scale.min
              : scale.min + 0.5 * static_cast<double>(rng.NextUint64(steps));
      EXPECT_TRUE(builder.AddRating(u, i, rating).ok());
    }
  }
  return std::move(builder).Build();
}

/// The oracle: today's full evaluation of one member list.
double Oracle(const FormationProblem& problem,
              const grouprec::GroupScorer& scorer,
              const std::vector<UserId>& members) {
  if (members.empty()) return 0.0;
  const auto list = core::ComputeGroupList(problem, scorer, members);
  return core::AggregateListSatisfaction(
      problem, static_cast<int>(members.size()), list);
}

std::vector<UserId> Without(std::vector<UserId> members, UserId out) {
  members.erase(std::find(members.begin(), members.end(), out));
  return members;
}

std::vector<UserId> With(std::vector<UserId> members, UserId in,
                         Insert insert) {
  if (insert == Insert::kSortAll) {
    members.push_back(in);
    std::sort(members.begin(), members.end());
  } else {
    members.insert(std::lower_bound(members.begin(), members.end(), in),
                   in);
  }
  return members;
}

/// ell groups: slot 0 empty, slot 1 a singleton, slot 2 a pair, and the
/// remaining users spread at random over the other slots (unsorted).
std::vector<std::vector<UserId>> SeededPartition(std::int32_t users,
                                                 int ell,
                                                 std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<UserId> order(static_cast<std::size_t>(users));
  for (UserId u = 0; u < users; ++u) order[static_cast<std::size_t>(u)] = u;
  rng.Shuffle(order);
  std::vector<std::vector<UserId>> groups(static_cast<std::size_t>(ell));
  groups[1] = {order[0]};
  groups[2] = {order[1], order[2]};
  for (std::size_t i = 3; i < order.size(); ++i) {
    const auto g = 3 + rng.NextUint64(static_cast<std::uint64_t>(ell - 3));
    groups[g].push_back(order[i]);
  }
  return groups;
}

SearchState FreshState(const FormationProblem& problem,
                       const grouprec::GroupScorer& scorer,
                       const std::vector<std::vector<UserId>>& groups,
                       Insert insert) {
  return SearchState(problem, scorer,
                     exact::ScorePartition(problem, scorer, groups), insert);
}

/// Every Remove and Add of the partition, and the Replaces of each
/// member with a few outsiders, against the oracle and a fresh state.
void ExpectAllMovesMatch(const FormationProblem& problem,
                         const grouprec::GroupScorer& scorer,
                         const std::vector<std::vector<UserId>>& groups,
                         const SearchState& state, const SearchState& fresh,
                         Insert insert, const std::string& label) {
  const std::int32_t users = problem.Store().num_users();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const int gi = static_cast<int>(g);
    const auto& members = groups[g];
    std::vector<UserId> outsiders;
    for (UserId u = 0; u < users; ++u) {
      if (std::find(members.begin(), members.end(), u) == members.end()) {
        outsiders.push_back(u);
      }
    }
    for (const UserId in : outsiders) {
      const double add = state.Add(gi, in);
      ASSERT_EQ(add, Oracle(problem, scorer, With(members, in, insert)))
          << label << " add " << in << " to group " << g;
      ASSERT_EQ(add, fresh.Add(gi, in))
          << label << " fresh add " << in << " to group " << g;
    }
    for (const UserId out : members) {
      const double remove = state.Remove(gi, out);
      ASSERT_EQ(remove, Oracle(problem, scorer, Without(members, out)))
          << label << " remove " << out << " from group " << g;
      ASSERT_EQ(remove, fresh.Remove(gi, out))
          << label << " fresh remove " << out << " from group " << g;
      for (std::size_t j = 0; j < outsiders.size(); j += 3) {
        const UserId in = outsiders[j];
        const double replace = state.Replace(gi, out, in);
        ASSERT_EQ(replace,
                  Oracle(problem, scorer,
                         With(Without(members, out), in, insert)))
            << label << " replace " << out << " by " << in << " in group "
            << g;
        ASSERT_EQ(replace, fresh.Replace(gi, out, in))
            << label << " fresh replace " << out << " by " << in
            << " in group " << g;
      }
    }
  }
}

/// `state` holds exactly `groups` (member order included) and equals a
/// state built fresh from them.
void ExpectStateMatchesFresh(const FormationProblem& problem,
                             const grouprec::GroupScorer& scorer,
                             const std::vector<std::vector<UserId>>& groups,
                             const SearchState& state, Insert insert,
                             const std::string& label) {
  const SearchState fresh = FreshState(problem, scorer, groups, insert);
  ASSERT_EQ(state.groups().size(), groups.size()) << label;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ASSERT_EQ(state.groups()[g], groups[g]) << label << " group " << g;
    ASSERT_EQ(state.satisfaction()[g], fresh.satisfaction()[g])
        << label << " satisfaction of group " << g;
  }
  ASSERT_TRUE(std::ranges::equal(state.group_of(), fresh.group_of()))
      << label << " group_of";
  ASSERT_NEAR(state.objective(), fresh.objective(),
              1e-9 * std::max(1.0, std::abs(fresh.objective())))
      << label << " objective";
  ExpectAllMovesMatch(problem, scorer, groups, state, fresh, insert, label);
}

/// `steps` seeded random relocations and swaps applied to a state over
/// `groups`, with the state checked against a fresh one after each.
void ExpectStateFollowsMoves(const FormationProblem& problem,
                             std::vector<std::vector<UserId>> groups,
                             Insert insert, std::uint64_t seed, int steps,
                             const std::string& label) {
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  SearchState state = FreshState(problem, scorer, groups, insert);
  ExpectStateMatchesFresh(problem, scorer, groups, state, insert, label);
  common::Rng rng(seed);
  const auto ell = static_cast<std::uint64_t>(groups.size());
  for (int step = 0; step < steps; ++step) {
    const auto from = rng.NextUint64(ell);
    const auto to = rng.NextUint64(ell);
    if (from == to || groups[from].empty()) continue;
    const UserId u = groups[from][rng.NextUint64(groups[from].size())];
    const int fi = static_cast<int>(from);
    const int ti = static_cast<int>(to);
    if (step % 2 == 1 && !groups[to].empty()) {
      const UserId v = groups[to][rng.NextUint64(groups[to].size())];
      state.Swap(u, v, state.Replace(fi, u, v), state.Replace(ti, v, u));
      groups[from] = With(Without(groups[from], u), v, insert);
      groups[to] = With(Without(groups[to], v), u, insert);
    } else {
      state.Relocate(u, ti, state.Remove(fi, u), state.Add(ti, u));
      groups[from] = Without(groups[from], u);
      groups[to] = With(groups[to], u, insert);
    }
    ExpectStateMatchesFresh(problem, scorer, groups, state, insert,
                            label + " step " + std::to_string(step));
  }
}

struct Instance {
  std::string name;
  data::RatingMatrix matrix;
};

std::vector<Instance> Instances() {
  std::vector<Instance> out;
  out.push_back({"sparse", RandomMatrix(22, 12, 0.55, {1.0, 5.0}, 11)});
  out.push_back({"dense", RandomMatrix(20, 10, 0.92, {1.0, 5.0}, 12)});
  // scale.min = 0: the zero policy's floor equals r_min.
  out.push_back({"zero-min", RandomMatrix(18, 9, 0.85, {0.0, 3.0}, 13)});
  return out;
}

FormationProblem Problem(const data::RatingMatrix* matrix,
                         const data::CompactRatingMatrix* compact,
                         MissingRatingPolicy missing,
                         Aggregation aggregation, int k) {
  FormationProblem problem;
  problem.matrix = matrix;
  problem.compact = compact;
  problem.semantics = Semantics::kLeastMisery;
  problem.missing = missing;
  problem.aggregation = aggregation;
  problem.k = k;
  problem.max_groups = 6;
  return problem;
}

TEST(SearchState, DeltaPathMatchesFullEvaluation) {
  for (const Instance& instance : Instances()) {
    const auto compact8 =
        data::CompactRatingMatrix::FromMatrix(instance.matrix, 8);
    const auto compact16 =
        data::CompactRatingMatrix::FromMatrix(instance.matrix, 16);
    struct Backend {
      const char* name;
      const data::RatingMatrix* matrix;
      const data::CompactRatingMatrix* compact;
    };
    const Backend backends[] = {{"dense", &instance.matrix, nullptr},
                                {"compact8", nullptr, &compact8},
                                {"compact16", nullptr, &compact16}};
    const int items = instance.matrix.num_items();
    for (const Backend& backend : backends) {
      for (const auto missing :
           {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero}) {
        for (const auto aggregation :
             {Aggregation::kMax, Aggregation::kMin, Aggregation::kSum}) {
          // k = 3 leaves large groups with fewer complete items than k;
          // k above the catalogue takes the whole catalogue.
          for (const int k : {1, 3, items + 2}) {
            const FormationProblem problem = Problem(
                backend.matrix, backend.compact, missing, aggregation, k);
            ASSERT_TRUE(SearchState::InDeltaScope(problem));
            const std::string label =
                instance.name + "/" + backend.name + "/" +
                (missing == MissingRatingPolicy::kZero ? "zero" : "rmin") +
                "/" + grouprec::AggregationToString(aggregation) + "/k" +
                std::to_string(k);
            for (const std::uint64_t seed : {1u, 2u}) {
              ExpectStateFollowsMoves(
                  problem,
                  SeededPartition(instance.matrix.num_users(), 6,
                                  seed * 7 + static_cast<std::uint64_t>(k)),
                  Insert::kSortAll, seed, /*steps=*/4, label);
            }
          }
        }
      }
    }
  }
}

TEST(SearchState, SharedMinimaAndRatingsAtTheScaleMinimum) {
  // In group {0, 1, 2, 3}: users 0, 1 and 3 share item 0's minimum 2, so
  // removing any one of them keeps it; user 2 alone holds item 2's minimum
  // 1 (= scale.min). Item 1 is complete only without user 3, and item 3
  // only without user 2. A 0 cell is unrated.
  data::RatingMatrixBuilder builder(5, 4, data::RatingScale{1.0, 5.0});
  const double cells[5][4] = {
      {2, 5, 4, 3}, {2, 4, 4, 5}, {3, 4, 1, 0}, {2, 0, 4, 4}, {5, 3, 2, 1}};
  for (UserId u = 0; u < 5; ++u) {
    for (ItemId i = 0; i < 4; ++i) {
      if (cells[u][i] > 0) {
        ASSERT_TRUE(builder.AddRating(u, i, cells[u][i]).ok());
      }
    }
  }
  const auto sparse = std::move(builder).Build();
  for (const auto missing :
       {MissingRatingPolicy::kScaleMin, MissingRatingPolicy::kZero}) {
    for (const auto aggregation :
         {Aggregation::kMax, Aggregation::kMin, Aggregation::kSum}) {
      for (const int k : {1, 2, 3, 6}) {
        const FormationProblem problem =
            Problem(&sparse, nullptr, missing, aggregation, k);
        std::vector<std::vector<UserId>> groups = {{0, 1, 2, 3}, {4}, {}};
        ExpectStateFollowsMoves(problem, groups, Insert::kSortAll, 3,
                                /*steps=*/4, "shared-minima");
      }
    }
  }
}

TEST(SearchState, OutOfScopeProblemsTakeTheFullPath) {
  const auto positive = RandomMatrix(16, 9, 0.7, {1.0, 5.0}, 21);
  // A scale reaching below zero: under `zero`, an incomplete item scores
  // min(observed minimum, 0), which is not a constant floor.
  const auto negative = RandomMatrix(16, 9, 0.7, {-2.0, 2.0}, 22);
  struct Case {
    const char* name;
    const data::RatingMatrix* matrix;
    Semantics semantics;
    MissingRatingPolicy missing;
    int candidate_depth;
  };
  const Case cases[] = {
      {"av", &positive, Semantics::kAggregateVoting,
       MissingRatingPolicy::kScaleMin, 0},
      {"skip", &positive, Semantics::kLeastMisery,
       MissingRatingPolicy::kSkipUser, 0},
      {"zero-negative-scale", &negative, Semantics::kLeastMisery,
       MissingRatingPolicy::kZero, 0},
      {"candidate-depth", &positive, Semantics::kLeastMisery,
       MissingRatingPolicy::kScaleMin, 2},
  };
  for (const Case& c : cases) {
    for (const Insert insert : {Insert::kSortAll, Insert::kLowerBound}) {
      FormationProblem problem =
          Problem(c.matrix, nullptr, c.missing, Aggregation::kSum, 3);
      problem.semantics = c.semantics;
      problem.candidate_depth = c.candidate_depth;
      EXPECT_FALSE(SearchState::InDeltaScope(problem)) << c.name;
      ExpectStateFollowsMoves(problem, SeededPartition(16, 5, 4), insert,
                              5, /*steps=*/4, c.name);
    }
  }
  // The scope boundary itself: zero is in scope from scale.min = 0 up.
  const auto at_zero = RandomMatrix(8, 5, 0.7, {0.0, 4.0}, 23);
  EXPECT_TRUE(SearchState::InDeltaScope(Problem(
      &at_zero, nullptr, MissingRatingPolicy::kZero, Aggregation::kMin, 2)));
}

TEST(SearchState, StateMatchesAFreshStateAfterEveryMove) {
  // Long move sequences from unsorted random splits, under both placement
  // rules, on the delta path (LM with rmin or zero) and the full path (AV,
  // and LM with skip): every applied move must leave the same state a
  // fresh build of the moved member lists has.
  const auto matrix = RandomMatrix(20, 10, 0.8, {1.0, 5.0}, 31);
  struct Case {
    const char* name;
    Semantics semantics;
    MissingRatingPolicy missing;
  };
  const Case cases[] = {
      {"lm-rmin", Semantics::kLeastMisery, MissingRatingPolicy::kScaleMin},
      {"lm-zero", Semantics::kLeastMisery, MissingRatingPolicy::kZero},
      {"av-rmin", Semantics::kAggregateVoting,
       MissingRatingPolicy::kScaleMin},
      {"lm-skip", Semantics::kLeastMisery, MissingRatingPolicy::kSkipUser},
  };
  for (const Case& c : cases) {
    for (const Insert insert : {Insert::kSortAll, Insert::kLowerBound}) {
      for (const std::uint64_t seed : {41u, 42u}) {
        FormationProblem problem =
            Problem(&matrix, nullptr, c.missing, Aggregation::kSum, 3);
        problem.semantics = c.semantics;
        const bool delta = c.semantics == Semantics::kLeastMisery &&
                           c.missing != MissingRatingPolicy::kSkipUser;
        ASSERT_EQ(SearchState::InDeltaScope(problem), delta) << c.name;
        const std::string label =
            std::string(c.name) +
            (insert == Insert::kSortAll ? "/sort-all" : "/lower-bound") +
            "/seed" + std::to_string(seed);
        ExpectStateFollowsMoves(problem, SeededPartition(20, 6, seed),
                                insert, seed, /*steps=*/24, label);
      }
    }
  }
}

}  // namespace
}  // namespace groupform
