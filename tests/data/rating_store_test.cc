// The RatingStore seam (DESIGN.md §14.4): one non-owning view over both
// backends, with the dense path reading the exact same entries as the
// matrix's own accessors and the compact path reading the exact same
// values as the compact matrix's own accessors.
#include "data/rating_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "data/synthetic.h"

namespace groupform::data {
namespace {

struct Visited {
  ItemId item;
  Rating rating;
  friend bool operator==(const Visited&, const Visited&) = default;
};

std::vector<Visited> CollectRow(const RatingStore& store, UserId user) {
  std::vector<Visited> out;
  store.VisitRow(user, [&out](ItemId item, Rating rating) {
    out.push_back({item, rating});
  });
  return out;
}

TEST(RatingStore, DenseViewMatchesTheMatrixExactly) {
  const auto matrix = GenerateLatentFactor(MovieLensLikeConfig(10, 8, 3));
  const RatingStore store(matrix);
  ASSERT_TRUE(store.is_dense());
  EXPECT_EQ(store.num_users(), matrix.num_users());
  EXPECT_EQ(store.num_items(), matrix.num_items());
  EXPECT_EQ(store.num_ratings(), matrix.num_ratings());
  EXPECT_EQ(store.ByteSize(), matrix.ByteSize());
  std::vector<RatingEntry> scratch;
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    const auto row = matrix.RatingsOf(u);
    const auto visited = CollectRow(store, u);
    ASSERT_EQ(visited.size(), row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(visited[i].item, row[i].item);
      EXPECT_EQ(visited[i].rating, row[i].rating);  // bitwise
    }
    // The span path is zero-copy on dense: same backing data.
    const auto span = store.Row(u, scratch);
    ASSERT_EQ(span.size(), row.size());
    if (!row.empty()) {
      EXPECT_EQ(span.data(), row.data());
    }
  }
}

TEST(RatingStore, CompactViewMatchesTheCompactMatrixExactly) {
  const auto matrix = GenerateLatentFactor(MovieLensLikeConfig(10, 8, 3));
  const auto compact = CompactRatingMatrix::FromMatrix(matrix, 8);
  const RatingStore store(compact);
  ASSERT_FALSE(store.is_dense());
  EXPECT_EQ(store.num_users(), compact.num_users());
  EXPECT_EQ(store.num_ratings(), compact.num_ratings());
  EXPECT_EQ(store.ByteSize(), compact.ByteSize());
  std::vector<RatingEntry> scratch;
  for (UserId u = 0; u < matrix.num_users(); ++u) {
    const auto visited = CollectRow(store, u);
    const auto span = store.Row(u, scratch);
    ASSERT_EQ(visited.size(), span.size());
    for (std::size_t i = 0; i < visited.size(); ++i) {
      EXPECT_EQ(span[i].item, visited[i].item);
      EXPECT_EQ(span[i].rating, visited[i].rating);
      EXPECT_EQ(store.GetRating(u, visited[i].item), visited[i].rating);
    }
  }
}

TEST(RatingStore, GetRatingOrFallsBackForMissingCells) {
  RatingScale scale;
  RatingMatrixBuilder builder(2, 3, scale);
  ASSERT_TRUE(builder.AddRating(0, 1, 4.0).ok());
  const RatingMatrix matrix = std::move(builder).Build();
  const auto compact = CompactRatingMatrix::FromMatrix(matrix, 8);
  for (const RatingStore& store :
       {RatingStore(matrix), RatingStore(compact)}) {
    EXPECT_EQ(store.GetRatingOr(0, 1, -9.0), 4.0);
    EXPECT_EQ(store.GetRatingOr(0, 2, -9.0), -9.0);
    EXPECT_EQ(store.GetRatingOr(1, 1, -9.0), -9.0);
    EXPECT_FALSE(store.GetRating(1, 0).has_value());
  }
}

}  // namespace
}  // namespace groupform::data
