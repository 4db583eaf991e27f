// eval::ComputeResponseMetrics against its oracle, the four per-metric
// functions (AvgGroupSatisfaction, MeanPerUserSatisfaction, MeanUserNdcg,
// FullySatisfiedFraction): every field compared with ==, because serve
// renders the metrics at full precision. The matrix covers every registry
// solver × LM/AV × Min/Max/Sum × the three missing-rating policies ×
// candidate depth 0 and > 0 on the dense backend and the 16- and 8-bit
// compact backends, over seeded random instances whose rows include empty
// ones and ones shorter than k. Hand-built results cover the empty result,
// lists shorter and longer than k, repeated and unrated list items, and
// empty groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/formation.h"
#include "core/solver_registry.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "eval/metrics.h"
#include "eval/weighted_objective.h"
#include "recsys/preference_lists.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

using core::FormationProblem;
using core::FormationResult;
using grouprec::Aggregation;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

/// num_users x num_items with 1..max_row ratings per user (users 3 and 7
/// rate nothing). Half the ratings are integers (ties in the personal
/// top-k), half continuous (summation order shows in the last bit), unless
/// `integer_only`.
data::RatingMatrix RandomMatrix(std::int32_t num_users,
                                std::int32_t num_items, int max_row,
                                std::uint64_t seed,
                                bool integer_only = false) {
  common::Rng rng(seed);
  data::RatingMatrixBuilder builder(num_users, num_items,
                                    data::RatingScale{1.0, 5.0});
  for (UserId u = 0; u < num_users; ++u) {
    if (u == 3 || u == 7) continue;
    const auto picks =
        rng.SampleWithoutReplacement(num_items, rng.UniformInt(1, max_row));
    for (const std::int64_t item : picks) {
      const double rating = integer_only || rng.Bernoulli(0.5)
                                ? static_cast<double>(rng.UniformInt(1, 5))
                                : 1.0 + 4.0 * rng.NextDouble();
      EXPECT_TRUE(
          builder.AddRating(u, static_cast<ItemId>(item), rating).ok());
    }
  }
  return std::move(builder).Build();
}

void ExpectMatchesOracle(const FormationProblem& problem,
                         const FormationResult& result) {
  const eval::ResponseMetrics metrics =
      eval::ComputeResponseMetrics(problem, result);
  EXPECT_EQ(metrics.avg_group_satisfaction,
            eval::AvgGroupSatisfaction(problem, result));
  EXPECT_EQ(metrics.mean_user_rating,
            eval::MeanPerUserSatisfaction(problem, result));
  EXPECT_EQ(metrics.mean_user_ndcg, eval::MeanUserNdcg(problem, result));
  EXPECT_EQ(metrics.fully_satisfied,
            eval::FullySatisfiedFraction(problem, result));
}

core::FormedGroup Group(std::vector<UserId> members,
                        std::vector<ItemId> items) {
  core::FormedGroup group;
  group.members = std::move(members);
  for (const ItemId item : items) {
    group.recommendation.items.push_back({item, 1.0});
  }
  return group;
}

constexpr MissingRatingPolicy kPolicies[] = {MissingRatingPolicy::kScaleMin,
                                             MissingRatingPolicy::kZero,
                                             MissingRatingPolicy::kSkipUser};

TEST(ResponseMetrics, EqualsTheOracleForEverySolverAndKnob) {
  solvers::EnsureBuiltinSolversRegistered();
  const auto& registry = core::SolverRegistry::Global();
  // One seeded instance per backend; on the compact ones the continuous
  // ratings land on the 16-bit or the coarser 8-bit quantization grid.
  const data::RatingMatrix dense = RandomMatrix(9, 8, 6, /*seed=*/11);
  const data::CompactRatingMatrix compact16 =
      data::CompactRatingMatrix::FromMatrix(RandomMatrix(9, 8, 6, 12), 16);
  const data::CompactRatingMatrix compact8 =
      data::CompactRatingMatrix::FromMatrix(RandomMatrix(9, 8, 6, 13), 8);
  int solves = 0;
  for (const int bits : {0, 16, 8}) {
    for (const std::string& name : registry.Names()) {
      for (const Semantics semantics :
           {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
        for (const Aggregation aggregation :
             {Aggregation::kMin, Aggregation::kMax, Aggregation::kSum}) {
          for (const MissingRatingPolicy missing : kPolicies) {
            for (const int depth : {0, 3}) {
              FormationProblem problem;
              if (bits == 0) {
                problem.matrix = &dense;
              } else {
                problem.compact = bits == 16 ? &compact16 : &compact8;
              }
              problem.semantics = semantics;
              problem.aggregation = aggregation;
              problem.missing = missing;
              problem.k = 3;
              problem.max_groups = 3;
              problem.candidate_depth = depth;
              auto solver = registry.Create(name, problem);
              ASSERT_TRUE(solver.ok()) << name << ": " << solver.status();
              const auto result = (*solver)->Solve(5);
              ASSERT_TRUE(result.ok()) << name << ": " << result.status();
              SCOPED_TRACE(name + " " + problem.ToString() + " missing=" +
                           std::to_string(static_cast<int>(missing)) +
                           " depth=" + std::to_string(depth) +
                           " bits=" + std::to_string(bits));
              ExpectMatchesOracle(problem, *result);
              ++solves;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(solves, 3 * 11 * 2 * 3 * 3 * 2);
}

TEST(ResponseMetrics, EmptyResultIsAllZero) {
  const data::RatingMatrix matrix = RandomMatrix(9, 8, 6, 21);
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 3;
  const FormationResult empty;
  const eval::ResponseMetrics metrics =
      eval::ComputeResponseMetrics(problem, empty);
  EXPECT_EQ(metrics.avg_group_satisfaction, 0.0);
  EXPECT_EQ(metrics.mean_user_rating, 0.0);
  EXPECT_EQ(metrics.mean_user_ndcg, 0.0);
  EXPECT_EQ(metrics.fully_satisfied, 0.0);
  ExpectMatchesOracle(problem, empty);
}

TEST(ResponseMetrics, HandBuiltListsEqualTheOracle) {
  // Users 3 and 7 rate nothing; max_row 2 < k leaves most rows shorter
  // than k, so personal top-k lists are short too.
  const data::RatingMatrix matrix = RandomMatrix(9, 8, 2, 31);
  FormationResult result;
  result.groups.push_back(Group({0, 1, 2}, {4}));           // shorter than k
  result.groups.push_back(Group({3, 7}, {}));               // no ratings
  result.groups.push_back(Group({4, 5}, {1, 6, 1}));        // repeated item
  result.groups.push_back(Group({6, 8}, {0, 2, 3, 5, 7}));  // longer than k
  result.groups.push_back(Group({}, {2, 5}));               // no members
  for (const MissingRatingPolicy missing : kPolicies) {
    for (const Semantics semantics :
         {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
      FormationProblem problem;
      problem.matrix = &matrix;
      problem.semantics = semantics;
      problem.missing = missing;
      problem.k = 3;
      SCOPED_TRACE(problem.ToString() + " missing=" +
                   std::to_string(static_cast<int>(missing)));
      ExpectMatchesOracle(problem, result);
    }
  }
}

TEST(ResponseMetrics, EachUsersOwnTopKIsFullySatisfied) {
  // Every user with ratings alone with their personal top-k, listed worst
  // first: set equality, not list order, makes them fully satisfied.
  // Integer ratings tie often at the k-th place, where only the tie rule
  // (the smaller item id wins) decides which item is in the top-k.
  const data::RatingMatrix matrix =
      RandomMatrix(9, 8, 6, 41, /*integer_only=*/true);
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 3;
  FormationResult result;
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    if (matrix.NumRatingsOf(u) == 0) continue;
    std::vector<ItemId> items;
    for (const auto& e : recsys::TopKList(matrix, u, problem.k)) {
      items.push_back(e.item);
    }
    std::reverse(items.begin(), items.end());
    result.groups.push_back(Group({u}, items));
  }
  const eval::ResponseMetrics metrics =
      eval::ComputeResponseMetrics(problem, result);
  EXPECT_EQ(metrics.fully_satisfied, 1.0);
  ExpectMatchesOracle(problem, result);
}

TEST(ResponseMetrics, GreedyMinListNeedNotScoreLikeTheRecomputedList) {
  // Greedy under Min aggregation can return a list whose scores do not sum
  // like core::ComputeGroupList's, so the pass must re-score every group
  // rather than sum the returned lists. This seeded instance (the dense
  // one of the matrix above) shows the mismatch; the pass still equals
  // the oracle.
  solvers::EnsureBuiltinSolversRegistered();
  const data::RatingMatrix matrix = RandomMatrix(9, 8, 6, /*seed=*/11);
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = Semantics::kLeastMisery;
  problem.aggregation = Aggregation::kMin;
  problem.missing = MissingRatingPolicy::kScaleMin;
  problem.k = 3;
  problem.max_groups = 3;
  auto solver = core::SolverRegistry::Global().Create("greedy", problem);
  ASSERT_TRUE(solver.ok()) << solver.status();
  const auto result = (*solver)->Solve(5);
  ASSERT_TRUE(result.ok()) << result.status();

  const grouprec::GroupScorer scorer = problem.MakeScorer();
  double returned = 0.0;
  double recomputed = 0.0;
  for (const core::FormedGroup& group : result->groups) {
    for (const auto& si : group.recommendation.items) returned += si.score;
    const auto list = core::ComputeGroupList(problem, scorer, group.members);
    for (const auto& si : list.items) recomputed += si.score;
  }
  EXPECT_NE(returned, recomputed);
  EXPECT_EQ(eval::ComputeResponseMetrics(problem, *result)
                .avg_group_satisfaction,
            recomputed / static_cast<double>(result->groups.size()));
  ExpectMatchesOracle(problem, *result);
}

}  // namespace
}  // namespace groupform
