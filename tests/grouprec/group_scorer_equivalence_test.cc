// The sparse group top-k kernel against the hash-map reference scorer
// (reference_scorer.h): exact ScoredItem equality, doubles compared with
// ==, for both entry points under every semantics x missing policy on the
// dense and both compact backends. The matrices leave unrated gaps at item
// 0 and at the end of the catalogue and give some users empty rows; every
// trial switches between catalogues of different sizes on one thread, so
// a per-thread scratch left dirty by any call would show as a mismatch.
// One case scores concurrently on a thread pool, so each worker's scratch
// is exercised in parallel (and raced under ThreadSanitizer).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"
#include "grouprec/group_scorer.h"
#include "reference_scorer.h"

namespace groupform {
namespace {

using grouprec::GroupScorer;
using grouprec::MissingRatingPolicy;
using grouprec::Semantics;

enum class Backend { kDense, kCompact8, kCompact16 };

/// num_users x num_items, ratings only on items [lead_gap, num_items -
/// tail_gap); every fifth user rates nothing. Half the ratings are
/// integers (score ties), half continuous (sum order matters).
data::RatingMatrix GappedMatrix(std::int32_t num_users,
                                std::int32_t num_items, std::int32_t lead_gap,
                                std::int32_t tail_gap, std::uint64_t seed) {
  common::Rng rng(seed);
  data::RatingMatrixBuilder builder(num_users, num_items,
                                    data::RatingScale{1.0, 5.0});
  const std::int64_t span = num_items - lead_gap - tail_gap;
  for (UserId u = 0; u < num_users; ++u) {
    if (u % 5 == 4) continue;
    const auto picks = rng.SampleWithoutReplacement(
        span, rng.UniformInt(1, std::min<std::int64_t>(span, 12)));
    for (const std::int64_t p : picks) {
      const double rating = rng.Bernoulli(0.5)
                                ? static_cast<double>(rng.UniformInt(1, 5))
                                : 1.0 + 4.0 * rng.NextDouble();
      EXPECT_TRUE(
          builder.AddRating(u, static_cast<ItemId>(lead_gap + p), rating)
              .ok());
    }
  }
  return std::move(builder).Build();
}

/// One catalogue on the parameterized backend.
struct Instance {
  data::RatingMatrix dense;
  std::unique_ptr<data::CompactRatingMatrix> compact;

  Instance(data::RatingMatrix matrix, Backend backend)
      : dense(std::move(matrix)) {
    if (backend != Backend::kDense) {
      compact = std::make_unique<data::CompactRatingMatrix>(
          data::CompactRatingMatrix::FromMatrix(
              dense, backend == Backend::kCompact8 ? 8 : 16));
    }
  }
  data::RatingStore store() const {
    return compact ? data::RatingStore(*compact) : data::RatingStore(dense);
  }
};

/// A random group of 1..10 users in random (unsorted) order.
std::vector<UserId> RandomGroup(common::Rng& rng, std::int32_t num_users) {
  const auto picks = rng.SampleWithoutReplacement(
      num_users, rng.UniformInt(1, std::min<std::int64_t>(num_users, 10)));
  return std::vector<UserId>(picks.begin(), picks.end());
}

class GroupScorerEquivalenceTest
    : public testing::TestWithParam<
          std::tuple<Semantics, MissingRatingPolicy, Backend>> {
 protected:
  GroupScorer::Options Options() const {
    GroupScorer::Options options;
    options.semantics = std::get<0>(GetParam());
    options.missing = std::get<1>(GetParam());
    return options;
  }
  Backend backend() const { return std::get<2>(GetParam()); }

  /// Both entry points on `store` equal the reference, exactly.
  void ExpectMatchesReference(const data::RatingStore& store,
                              std::span<const UserId> group, int k,
                              std::span<const ItemId> candidates) const {
    const GroupScorer scorer(store, Options());
    EXPECT_EQ(scorer.TopKAllItems(group, k).items,
              grouprec::reference::TopKAllItems(store, Options(), group, k)
                  .items)
        << "TopKAllItems, k=" << k << ", items=" << store.num_items();
    EXPECT_EQ(
        scorer.TopK(group, k, candidates).items,
        grouprec::reference::TopK(store, Options(), group, k, candidates)
            .items)
        << "TopK, k=" << k << ", candidates=" << candidates.size();
  }
};

TEST_P(GroupScorerEquivalenceTest, RandomGroupsMatchTheReference) {
  // A small, a tiny (k exceeds the catalogue) and a large catalogue,
  // interleaved call by call.
  std::vector<Instance> instances;
  instances.emplace_back(GappedMatrix(30, 40, 3, 5, 101), backend());
  instances.emplace_back(GappedMatrix(12, 7, 1, 1, 102), backend());
  instances.emplace_back(GappedMatrix(40, 300, 10, 20, 103), backend());
  common::Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance& instance = instances[static_cast<std::size_t>(trial) %
                                         instances.size()];
    const data::RatingStore store = instance.store();
    const std::vector<UserId> group = RandomGroup(rng, store.num_users());
    // Unsorted candidates, sometimes with an id past the catalogue.
    auto picks = rng.SampleWithoutReplacement(
        store.num_items(), rng.UniformInt(1, store.num_items()));
    std::vector<ItemId> candidates(picks.begin(), picks.end());
    if (rng.Bernoulli(0.3)) candidates.push_back(store.num_items() + 3);
    for (const int k : {1, 3, 10, store.num_items() + 5}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial);
      ExpectMatchesReference(store, group, k, candidates);
    }
  }
}

TEST_P(GroupScorerEquivalenceTest, EmptyRowsFillFromTheLowestUntouchedIds) {
  const Instance instance(GappedMatrix(10, 20, 4, 4, 104), backend());
  const data::RatingStore store = instance.store();
  // Users 4 and 9 rate nothing: with only them nothing is touched and the
  // whole list is the untouched fill; with user 0 the fill starts at item
  // 0, below every touched item.
  const std::vector<ItemId> candidates = {19, 0, 7, 3, 12};
  for (const std::vector<UserId>& group :
       {std::vector<UserId>{9, 4}, std::vector<UserId>{4, 0, 9}}) {
    for (const int k : {1, 5, 20, 50}) {
      ExpectMatchesReference(store, group, k, candidates);
    }
  }
}

TEST_P(GroupScorerEquivalenceTest, ScratchStaysCleanAcrossCatalogueSizes) {
  // Large, then small (the scratch is larger than the catalogue), then
  // large again: each call must see only its own group's ratings. The
  // candidates past both catalogues score as unrated, never as a stale
  // or neighbouring slot.
  const Instance large(GappedMatrix(20, 500, 0, 0, 105), backend());
  const Instance small(GappedMatrix(20, 9, 0, 0, 106), backend());
  const std::vector<UserId> group = {3, 17, 0, 8, 11, 6};
  const std::vector<ItemId> candidates = {8, 2, 600, 5, 0, kInvalidItem};
  for (int round = 0; round < 3; ++round) {
    for (const Instance* instance : {&large, &small}) {
      ExpectMatchesReference(instance->store(), group, 6, candidates);
    }
  }
}

TEST_P(GroupScorerEquivalenceTest, ConcurrentCallsMatchTheReference) {
  const Instance instance(GappedMatrix(60, 200, 5, 5, 107), backend());
  const data::RatingStore store = instance.store();
  const GroupScorer scorer(store, Options());
  common::Rng rng(11);
  std::vector<std::vector<UserId>> groups;
  for (int g = 0; g < 64; ++g) groups.push_back(RandomGroup(rng, 60));
  std::vector<grouprec::GroupTopK> lists(groups.size());
  common::ThreadPool pool(4);
  pool.ParallelFor(static_cast<std::int64_t>(groups.size()),
                   [&](std::int64_t g) {
                     const auto i = static_cast<std::size_t>(g);
                     lists[i] = scorer.TopKAllItems(groups[i], 10);
                   });
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(lists[i].items, grouprec::reference::TopKAllItems(
                                  store, Options(), groups[i], 10)
                                  .items)
        << "group " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupScorerEquivalenceTest,
    testing::Combine(testing::Values(Semantics::kLeastMisery,
                                     Semantics::kAggregateVoting),
                     testing::Values(MissingRatingPolicy::kScaleMin,
                                     MissingRatingPolicy::kZero,
                                     MissingRatingPolicy::kSkipUser),
                     testing::Values(Backend::kDense, Backend::kCompact8,
                                     Backend::kCompact16)));

}  // namespace
}  // namespace groupform
