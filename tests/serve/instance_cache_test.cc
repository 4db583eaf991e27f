// InstanceCache contract (DESIGN.md §12.3): hits share one matrix,
// eviction is LRU within the byte budget, and pinned entries (held by an
// in-flight request) are never dropped.
#include "serve/instance_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/status.h"
#include "serve/protocol.h"

namespace groupform::serve {
namespace {

/// A dense inline instance whose approximate cache footprint is
/// users*items ratings — sized so tests can budget exact entry counts.
InstanceSpec DenseInline(std::int32_t users, std::int32_t items,
                         double first_rating) {
  InstanceSpec spec;
  spec.kind = "inline";
  spec.users = users;
  spec.items = items;
  for (std::int32_t u = 0; u < users; ++u) {
    for (std::int32_t i = 0; i < items; ++i) {
      const double rating =
          (u == 0 && i == 0) ? first_rating : 1.0 + ((u + i) % 5);
      spec.ratings.push_back({u, i, rating});
    }
  }
  return spec;
}

TEST(InstanceCache, HitsShareOneLoadedMatrix) {
  InstanceCache cache(/*capacity_bytes=*/0);
  const InstanceSpec spec = DenseInline(6, 4, 5.0);
  const auto first = cache.Get(spec);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = cache.Get(spec);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->dense.get(), second->dense.get());  // same matrix object
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, first->dense->ByteSize());
  EXPECT_EQ(stats.bytes, first->ChargedBytes());
}

TEST(InstanceCache, DistinctSpecsLoadDistinctEntries) {
  InstanceCache cache(/*capacity_bytes=*/0);
  const auto a = cache.Get(DenseInline(6, 4, 5.0));
  const auto b = cache.Get(DenseInline(6, 4, 4.0));  // one rating differs
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->dense.get(), b->dense.get());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(InstanceCache, EvictsLeastRecentlyUsedWithinBudget) {
  const InstanceSpec spec_a = DenseInline(8, 8, 5.0);
  const InstanceSpec spec_b = DenseInline(8, 8, 4.0);
  const InstanceSpec spec_c = DenseInline(8, 8, 3.0);
  // Budget fits two 8x8 instances but not three.
  std::int64_t one_entry;
  {
    InstanceCache sizing(0);
    one_entry = sizing.Get(spec_a)->dense->ByteSize();
  }
  InstanceCache cache(2 * one_entry);
  ASSERT_TRUE(cache.Get(spec_a).ok());
  ASSERT_TRUE(cache.Get(spec_b).ok());
  ASSERT_TRUE(cache.Get(spec_a).ok());  // refresh A: B is now LRU
  ASSERT_TRUE(cache.Get(spec_c).ok());  // must evict B, not A
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);
  ASSERT_TRUE(cache.Get(spec_a).ok());
  EXPECT_EQ(cache.stats().misses, 3);  // A still cached (no new miss)
  ASSERT_TRUE(cache.Get(spec_b).ok());
  EXPECT_EQ(cache.stats().misses, 4);  // B was the one evicted
}

TEST(InstanceCache, PinnedEntriesAreNeverEvicted) {
  const InstanceSpec spec_a = DenseInline(8, 8, 5.0);
  const InstanceSpec spec_b = DenseInline(8, 8, 4.0);
  const InstanceSpec spec_c = DenseInline(8, 8, 3.0);
  std::int64_t one_entry;
  {
    InstanceCache sizing(0);
    one_entry = sizing.Get(spec_a)->dense->ByteSize();
  }
  // Budget of one entry: every insertion wants to evict everything else.
  InstanceCache cache(one_entry);
  std::shared_ptr<const data::RatingMatrix> held;
  {
    auto pinned = cache.Get(spec_a);
    ASSERT_TRUE(pinned.ok());
    held = std::move(pinned)->dense;  // the only outside reference to A
  }
  ASSERT_TRUE(cache.Get(spec_b).ok());  // over budget, but A is pinned
  EXPECT_GE(cache.stats().bytes, one_entry);
  // A survived: getting it again is a hit.
  const auto hits_before = cache.stats().hits;
  ASSERT_TRUE(cache.Get(spec_a).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  // Unpin; the next insertion may now evict A (and the unpinned B).
  held.reset();
  ASSERT_TRUE(cache.Get(spec_c).ok());
  EXPECT_EQ(cache.stats().evictions, 2);  // both A and B dropped
  ASSERT_TRUE(cache.Get(spec_a).ok());
  EXPECT_EQ(cache.stats().misses, 4);  // A was reloaded after eviction
}

TEST(InstanceCache, ZeroBudgetMeansUnlimited) {
  InstanceCache cache(/*capacity_bytes=*/0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.Get(DenseInline(4, 4, 1.0 + i % 5)).ok());
  }
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(InstanceCache, BuildFailuresDoNotPoisonTheCache) {
  InstanceCache cache(/*capacity_bytes=*/0);
  InstanceSpec missing;
  missing.kind = "csv";
  missing.path = "/nonexistent/ratings.csv";
  const auto result = cache.Get(missing);
  EXPECT_FALSE(result.ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.hits, 0);
}

TEST(InstanceCache, BuildInstanceRejectsBadInlineRatings) {
  InstanceSpec spec;
  spec.kind = "inline";
  spec.users = 2;
  spec.items = 2;
  spec.ratings = {{0, 0, 5.0}, {7, 0, 3.0}};  // user 7 out of range
  const auto built = BuildInstance(spec);
  EXPECT_FALSE(built.ok());
}

}  // namespace
}  // namespace groupform::serve
