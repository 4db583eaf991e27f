// Bucket splitting under LM (DESIGN.md §4.1b): the behaviour that makes
// the paper's Theorem 2/3 guarantees actually hold when intermediate
// buckets are larger than the group budget requires.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bucketing.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "data/rating_matrix.h"
#include "exact/subset_dp.h"
#include "grouprec/semantics.h"

namespace groupform {
namespace {

using core::FormationProblem;
using grouprec::Aggregation;
using grouprec::Semantics;

FormationProblem Problem(const data::RatingMatrix& matrix,
                         Semantics semantics, Aggregation aggregation, int k,
                         int ell) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = semantics;
  problem.aggregation = aggregation;
  problem.k = k;
  problem.max_groups = ell;
  return problem;
}

/// `count` users with identical ratings (5, 1, 1).
data::RatingMatrix IdenticalUsers(int count) {
  std::vector<std::vector<Rating>> rows(
      static_cast<std::size_t>(count), std::vector<Rating>{5.0, 1.0, 1.0});
  auto matrix = data::RatingMatrix::FromDense(rows);
  EXPECT_TRUE(matrix.ok());
  return std::move(matrix).value();
}

TEST(BucketSplitting, OneGiantLmBucketFillsEveryGroupSlot) {
  // 10 identical users, ell = 5: whole-bucket greedy would form one group
  // scoring 5 and stop; with splitting the greedy matches the optimum
  // 5 * 5 = 25 (four carved groups + the residual, all scoring 5).
  const auto matrix = IdenticalUsers(10);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMax, 1, 5);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  EXPECT_EQ(grd->num_groups(), 5);
  EXPECT_DOUBLE_EQ(grd->objective, 25.0);
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok());
  EXPECT_DOUBLE_EQ(grd->objective, opt->objective);
  EXPECT_TRUE(core::ValidatePartition(problem, *grd).ok());
}

TEST(BucketSplitting, SplitPartsAllCarryTheBucketScore) {
  const auto matrix = IdenticalUsers(7);
  const auto problem =
      Problem(matrix, Semantics::kLeastMisery, Aggregation::kMin, 2, 4);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  // Key (i0, i1 : 1): every part of the split bucket scores the shared
  // bottom rating 1.
  for (const auto& g : grd->groups) {
    EXPECT_DOUBLE_EQ(g.satisfaction, 1.0);
  }
  EXPECT_EQ(grd->num_groups(), 4);
  EXPECT_DOUBLE_EQ(grd->objective, 4.0);
}

TEST(BucketSplitting, SecondSlotOfStrongBucketBeatsWeakBucket) {
  // Bucket A: 3 users with top rating 5. Bucket B: 1 user with top rating
  // 2. ell = 3 gives two slots before the residual: score-greedy spends
  // both on A (5 + 5) rather than A + B (5 + 2).
  const auto matrix = data::RatingMatrix::FromDense({
      {5.0, 1.0},  // a0
      {5.0, 1.0},  // a1
      {5.0, 1.0},  // a2
      {1.0, 2.0},  // b
  });
  ASSERT_TRUE(matrix.ok());
  const auto problem =
      Problem(*matrix, Semantics::kLeastMisery, Aggregation::kMax, 1, 3);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  // Slots: {a0} and {a1, a2} (the bucket's remaining member rides in its
  // last slot at unchanged score); residual {b} scores 2. Objective
  // 5 + 5 + 2 = 12, which here matches the optimum.
  EXPECT_DOUBLE_EQ(grd->objective, 12.0);
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok());
  EXPECT_DOUBLE_EQ(opt->objective, 12.0);
  // A + B whole-bucket selection would only reach 5 + 2 + residual; the
  // split stays within the Theorem 2 bound trivially.
  EXPECT_LE(opt->objective - grd->objective, 5.0);
}

TEST(BucketSplitting, AvBucketsAreNeverSplit) {
  // Under AV, splitting a bucket redistributes its summed score, so the
  // greedy keeps buckets whole: 10 identical users with ell = 5 stay one
  // group whose AV score equals the sum over all members.
  const auto matrix = IdenticalUsers(10);
  const auto problem = Problem(matrix, Semantics::kAggregateVoting,
                               Aggregation::kMax, 1, 5);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  EXPECT_EQ(grd->num_groups(), 1);
  EXPECT_DOUBLE_EQ(grd->objective, 50.0);  // 10 members x rating 5
}

TEST(BucketSplitting, TiesAreAllocatedBreadthFirst) {
  // Two equal-score buckets of two users each, ell = 3: both buckets get
  // one slot each (the paper's whole-bucket trace), rather than one
  // bucket being split into singletons.
  const auto matrix = data::RatingMatrix::FromDense({
      {5.0, 1.0, 1.0},
      {5.0, 1.0, 1.0},
      {1.0, 5.0, 1.0},
      {1.0, 5.0, 1.0},
      {1.0, 1.0, 2.0},
  });
  ASSERT_TRUE(matrix.ok());
  const auto problem =
      Problem(*matrix, Semantics::kLeastMisery, Aggregation::kMax, 1, 3);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok());
  ASSERT_EQ(grd->num_groups(), 3);
  EXPECT_EQ(grd->groups[0].members, (std::vector<UserId>{0, 1}));
  EXPECT_EQ(grd->groups[1].members, (std::vector<UserId>{2, 3}));
  EXPECT_EQ(grd->groups[2].members, (std::vector<UserId>{4}));
  EXPECT_DOUBLE_EQ(grd->objective, 12.0);
}

using Scored = std::pair<double, const core::Bucket*>;

/// The LM slot allocation over fully sorted buckets: each bucket, best
/// first, with the number of group slots it wins (0: it joins the
/// residual group).
std::vector<std::pair<Scored, int>> FullSortAllocation(
    std::vector<Scored> scored, int ell) {
  std::sort(scored.begin(), scored.end(), core::BucketBetter);
  std::vector<int> allocation(scored.size(), 0);
  int slots = ell - 1;
  std::size_t run_start = 0;
  while (slots > 0 && run_start < scored.size()) {
    std::size_t run_end = run_start;
    while (run_end < scored.size() &&
           scored[run_end].first == scored[run_start].first) {
      ++run_end;
    }
    bool assigned_any = true;
    while (slots > 0 && assigned_any) {
      assigned_any = false;
      for (std::size_t i = run_start; i < run_end && slots > 0; ++i) {
        if (allocation[i] <
            static_cast<int>(scored[i].second->members.size())) {
          ++allocation[i];
          --slots;
          assigned_any = true;
        }
      }
    }
    run_start = run_end;
  }
  if (std::find(allocation.begin(), allocation.end(), 0) ==
      allocation.end()) {
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (allocation[i] <
          static_cast<int>(scored[i].second->members.size())) {
        ++allocation[i];
        break;
      }
    }
  }
  std::vector<std::pair<Scored, int>> out;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    out.push_back({scored[i], allocation[i]});
  }
  return out;
}

TEST(BucketSplitting, LmSelectionEqualsTheFullSortReference) {
  // Bucket scores and score vectors come from small sets, so in most cases
  // more than ell buckets tie at the ell-th best score, a run straddles
  // the last slot, and BucketBetter's later keys decide who gets it.
  constexpr std::int32_t kUsers = 60;
  constexpr std::int32_t kItems = 10;
  common::Rng matrix_rng(7);
  std::vector<std::vector<Rating>> rows(kUsers,
                                        std::vector<Rating>(kItems));
  for (auto& row : rows) {
    for (Rating& r : row) {
      r = static_cast<double>(matrix_rng.UniformInt(1, 5));
    }
  }
  const auto matrix = data::RatingMatrix::FromDense(rows);
  ASSERT_TRUE(matrix.ok());
  int wide_ties = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    std::vector<UserId> users(kUsers);
    for (UserId u = 0; u < kUsers; ++u) users[static_cast<std::size_t>(u)] = u;
    rng.Shuffle(users);
    std::vector<core::Bucket> buckets;
    for (std::size_t next = 0; next < users.size();) {
      const auto size = std::min<std::size_t>(
          static_cast<std::size_t>(rng.UniformInt(1, 4)),
          users.size() - next);
      core::Bucket& bucket = buckets.emplace_back();
      bucket.members.assign(users.begin() + static_cast<std::ptrdiff_t>(next),
                            users.begin() +
                                static_cast<std::ptrdiff_t>(next + size));
      std::sort(bucket.members.begin(), bucket.members.end());
      for (int j = 0; j < 3; ++j) {
        bucket.seq_items.push_back(
            static_cast<ItemId>(rng.UniformInt(0, kItems - 1)));
        bucket.seq_scores.push_back(
            static_cast<double>(rng.UniformInt(4, 5)));
      }
      next += size;
    }
    std::vector<Scored> scored;
    for (const core::Bucket& bucket : buckets) {
      scored.push_back({static_cast<double>(rng.UniformInt(2, 4)), &bucket});
    }
    rng.Shuffle(scored);
    const int ell = static_cast<int>(
        rng.UniformInt(1, static_cast<std::int64_t>(scored.size()) + 2));
    const auto problem = Problem(*matrix, Semantics::kLeastMisery,
                                Aggregation::kMin, 3, ell);
    const grouprec::GroupScorer scorer = problem.MakeScorer();

    const auto reference = FullSortAllocation(scored, ell);
    if (scored.size() > static_cast<std::size_t>(ell)) {
      const double cut =
          reference[static_cast<std::size_t>(ell - 1)].first.first;
      const auto tied = std::count_if(
          scored.begin(), scored.end(),
          [cut](const Scored& entry) { return entry.first == cut; });
      if (tied > ell) ++wide_ties;
    }
    std::vector<std::pair<std::vector<UserId>, double>> expected;
    std::vector<UserId> residual;
    for (const auto& [entry, slots] : reference) {
      const auto& members = entry.second->members;
      if (slots == 0) {
        residual.insert(residual.end(), members.begin(), members.end());
        continue;
      }
      for (int s = 0; s < slots; ++s) {
        expected.push_back(
            {s + 1 < slots
                 ? std::vector<UserId>{members[static_cast<std::size_t>(s)]}
                 : std::vector<UserId>(members.begin() + s, members.end()),
             entry.first});
      }
    }
    if (!residual.empty()) {
      std::sort(residual.begin(), residual.end());
      const double satisfaction =
          core::ScoreGroup(problem, scorer, residual).satisfaction;
      expected.push_back({residual, satisfaction});
    }
    double expected_objective = 0.0;
    for (const auto& group : expected) expected_objective += group.second;

    const core::FormationResult result =
        core::SelectAndAssemble(problem, scorer, scored);
    ASSERT_EQ(result.groups.size(), expected.size());
    for (std::size_t g = 0; g < expected.size(); ++g) {
      EXPECT_EQ(result.groups[g].members, expected[g].first) << "group " << g;
      EXPECT_EQ(result.groups[g].satisfaction, expected[g].second)
          << "group " << g;
    }
    EXPECT_EQ(result.objective, expected_objective);
  }
  EXPECT_GE(wide_ties, 50);
}

}  // namespace
}  // namespace groupform
