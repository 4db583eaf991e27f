// Property sweep for the group recommender: ordering, scale bounds,
// candidate monotonicity, and LM-vs-AV relationships on randomized
// matrices and groups.
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "grouprec/group_scorer.h"

namespace groupform {
namespace {

using grouprec::GroupScorer;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

class ScorerPropertyTest
    : public testing::TestWithParam<
          std::tuple<Semantics, MissingRatingPolicy, std::uint64_t>> {};

TEST_P(ScorerPropertyTest, TopKIsSortedBoundedAndConsistent) {
  const auto [semantics, policy, seed] = GetParam();
  auto config = data::YahooMusicLikeConfig(40, 25, seed);
  config.min_ratings_per_user = 3;
  config.max_ratings_per_user = 15;
  const auto matrix = data::GenerateLatentFactor(config);

  GroupScorer::Options options;
  options.semantics = semantics;
  options.missing = policy;
  const GroupScorer scorer(matrix, options);

  common::Rng rng(seed * 31 + 7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto picks = rng.SampleWithoutReplacement(
        matrix.num_users(), 1 + static_cast<std::int64_t>(
                                    rng.NextUint64(6)));
    std::vector<UserId> group;
    for (auto p : picks) group.push_back(static_cast<UserId>(p));
    const int group_size = static_cast<int>(group.size());

    const auto list = scorer.TopKAllItems(group, 8);
    // (1) Sorted by score descending, ties by item id ascending.
    for (int j = 1; j < list.size(); ++j) {
      const auto& prev = list.items[static_cast<std::size_t>(j - 1)];
      const auto& cur = list.items[static_cast<std::size_t>(j)];
      EXPECT_TRUE(prev.score > cur.score ||
                  (prev.score == cur.score && prev.item < cur.item));
    }
    // (2) Scores are within the achievable range of the policy.
    const double upper =
        semantics == Semantics::kAggregateVoting
            ? matrix.scale().max * static_cast<double>(group_size)
            : matrix.scale().max;
    const double lower =
        policy == MissingRatingPolicy::kZero ? 0.0 : matrix.scale().min;
    for (const auto& si : list.items) {
      EXPECT_LE(si.score, upper + 1e-9);
      EXPECT_GE(si.score, lower - 1e-9);
      // (3) Each reported score agrees with the single-item entry point.
      EXPECT_DOUBLE_EQ(si.score, scorer.ItemScore(group, si.item));
    }
    // (4) Candidate-subset monotonicity: the union-candidate list's
    // scores are pointwise <= the full-catalogue list's scores.
    const auto truncated = scorer.TopKUnionCandidates(group, 8, 3);
    for (int j = 0; j < truncated.size() && j < list.size(); ++j) {
      EXPECT_LE(truncated.items[static_cast<std::size_t>(j)].score,
                list.items[static_cast<std::size_t>(j)].score + 1e-9);
    }
  }
}

TEST_P(ScorerPropertyTest, LmNeverExceedsAvPerMemberAverage) {
  const auto [semantics, policy, seed] = GetParam();
  if (semantics != Semantics::kLeastMisery) GTEST_SKIP();
  const auto matrix = data::GenerateUniformDense(
      12, 10, data::RatingScale{1.0, 5.0}, seed);
  GroupScorer::Options lm_options;
  lm_options.semantics = Semantics::kLeastMisery;
  lm_options.missing = policy;
  GroupScorer::Options av_options;
  av_options.semantics = Semantics::kAggregateVoting;
  av_options.missing = policy;
  const GroupScorer lm(matrix, lm_options);
  const GroupScorer av(matrix, av_options);
  const std::vector<UserId> group = {0, 3, 5, 9};
  for (ItemId item = 0; item < matrix.num_items(); ++item) {
    // min <= mean: LM score <= AV score / |g| on complete data.
    EXPECT_LE(lm.ItemScore(group, item),
              av.ItemScore(group, item) / 4.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScorerPropertyTest,
    testing::Combine(testing::Values(Semantics::kLeastMisery,
                                     Semantics::kAggregateVoting),
                     testing::Values(MissingRatingPolicy::kScaleMin,
                                     MissingRatingPolicy::kZero,
                                     MissingRatingPolicy::kSkipUser),
                     testing::Values(11u, 13u, 17u)));

}  // namespace
}  // namespace groupform
