// core/delta.h: validating/folding delta sequences, epoch
// materialisation, assignment carry, and the start-assignment encoding
// (DESIGN.md §13). Every rejection is INVALID_ARGUMENT with the delta
// index in the message — never a GF_CHECK abort.
#include "core/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/solver.h"
#include "data/rating_matrix.h"

namespace groupform::core {
namespace {

using Kind = PopulationDelta::Kind;

TEST(ApplyDeltas, EmptySequenceIsIdenticalToBase) {
  const auto base = [] {
    data::RatingScale scale;
    data::RatingMatrixBuilder builder(3, 2, scale);
    (void)builder.AddRating(0, 0, 3.0);
    return std::move(builder).Build();
  }();
  const auto applied = ApplyDeltas(base, {});
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_TRUE(applied->identical_to_base);
  EXPECT_EQ(applied->active_users, (std::vector<UserId>{0, 1, 2}));
  EXPECT_TRUE(applied->overlays.empty());
}

TEST(ApplyDeltas, CancellingSequenceSharesTheBase) {
  const auto base = [] {
    data::RatingScale scale;
    data::RatingMatrixBuilder builder(3, 2, scale);
    (void)builder.AddRating(0, 0, 3.0);
    return std::move(builder).Build();
  }();
  const std::vector<PopulationDelta> deltas = {
      {Kind::kRemoveUser, 1},
      {Kind::kAddUser, 1},
      // A rerate landing exactly on the base value is not effective.
      {Kind::kRerate, 0, 0, 3.0},
  };
  const auto applied = ApplyDeltas(base, deltas);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_TRUE(applied->identical_to_base);
}

TEST(ApplyDeltas, RemovalAndOverlayFold) {
  const auto base = [] {
    data::RatingScale scale;
    data::RatingMatrixBuilder builder(4, 3, scale);
    (void)builder.AddRating(0, 0, 3.0);
    (void)builder.AddRating(2, 1, 2.0);
    return std::move(builder).Build();
  }();
  const std::vector<PopulationDelta> deltas = {
      {Kind::kRemoveUser, 1},
      {Kind::kRerate, 2, 1, 4.0},
      {Kind::kRerate, 2, 1, 5.0},  // later rerate wins
      {Kind::kRerate, 0, 2, 1.0},  // fills an unobserved cell
  };
  const auto applied = ApplyDeltas(base, deltas);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_FALSE(applied->identical_to_base);
  EXPECT_EQ(applied->active_users, (std::vector<UserId>{0, 2, 3}));
  ASSERT_EQ(applied->overlays.size(), 2u);
  EXPECT_EQ(applied->overlays[0].user, 0);
  EXPECT_EQ(applied->overlays[0].item, 2);
  EXPECT_EQ(applied->overlays[0].rating, 1.0);
  EXPECT_EQ(applied->overlays[1].user, 2);
  EXPECT_EQ(applied->overlays[1].rating, 5.0);
}

TEST(ApplyDeltas, RejectionsNameTheDeltaIndex) {
  const auto base = [] {
    data::RatingScale scale;
    scale.min = 1.0;
    scale.max = 5.0;
    data::RatingMatrixBuilder builder(3, 2, scale);
    (void)builder.AddRating(0, 0, 3.0);
    return std::move(builder).Build();
  }();
  const struct {
    const char* what;
    std::vector<PopulationDelta> deltas;
  } cases[] = {
      {"add of an active user", {{Kind::kAddUser, 1}}},
      {"remove of an inactive user",
       {{Kind::kRemoveUser, 1}, {Kind::kRemoveUser, 1}}},
      {"rerate of an inactive user",
       {{Kind::kRemoveUser, 1}, {Kind::kRerate, 1, 0, 2.0}}},
      {"out-of-range user", {{Kind::kRemoveUser, 99}}},
      {"out-of-range item", {{Kind::kRerate, 0, 99, 2.0}}},
      {"rating outside the scale", {{Kind::kRerate, 0, 0, 9.0}}},
      {"no active users left",
       {{Kind::kRemoveUser, 0},
        {Kind::kRemoveUser, 1},
        {Kind::kRemoveUser, 2}}},
  };
  for (const auto& test_case : cases) {
    const auto applied = ApplyDeltas(base, test_case.deltas);
    ASSERT_FALSE(applied.ok()) << test_case.what;
    EXPECT_EQ(applied.status().code(),
              common::StatusCode::kInvalidArgument)
        << test_case.what;
  }
  // The failing index is named so a client can point at its own list.
  const std::vector<PopulationDelta> two = {{Kind::kRemoveUser, 1},
                                            {Kind::kRemoveUser, 1}};
  const auto applied = ApplyDeltas(base, two);
  EXPECT_NE(applied.status().message().find("delta 1"), std::string::npos)
      << applied.status();
}

TEST(MaterializeDeltas, SubsetsUsersAndAppliesOverlays) {
  const auto base = [] {
    data::RatingScale scale;
    data::RatingMatrixBuilder builder(4, 3, scale);
    (void)builder.AddRating(0, 0, 3.0);
    (void)builder.AddRating(1, 1, 4.0);
    (void)builder.AddRating(2, 2, 2.0);
    (void)builder.AddRating(3, 0, 5.0);
    return std::move(builder).Build();
  }();
  const std::vector<PopulationDelta> deltas = {
      {Kind::kRemoveUser, 1},
      {Kind::kRerate, 2, 2, 5.0},
      {Kind::kRerate, 3, 1, 1.0},
  };
  const auto applied = ApplyDeltas(base, deltas);
  ASSERT_TRUE(applied.ok()) << applied.status();
  const auto epoch = MaterializeDeltas(base, *applied);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  // Users {0, 2, 3} re-indexed densely to {0, 1, 2}; items preserved.
  EXPECT_EQ(epoch->num_users(), 3);
  EXPECT_EQ(epoch->num_items(), 3);
  EXPECT_EQ(epoch->GetRatingOr(0, 0, -1.0), 3.0);
  EXPECT_EQ(epoch->GetRatingOr(1, 2, -1.0), 5.0);  // overlay override
  EXPECT_EQ(epoch->GetRatingOr(2, 0, -1.0), 5.0);  // base cell of user 3
  EXPECT_EQ(epoch->GetRatingOr(2, 1, -1.0), 1.0);  // overlay new cell
}

TEST(MaterializeDeltas, PureRemovalMatchesSubsetUsers) {
  const auto base = [] {
    data::RatingScale scale;
    data::RatingMatrixBuilder builder(4, 3, scale);
    (void)builder.AddRating(0, 0, 3.0);
    (void)builder.AddRating(2, 1, 2.0);
    return std::move(builder).Build();
  }();
  const std::vector<PopulationDelta> deltas = {{Kind::kRemoveUser, 1}};
  const auto applied = ApplyDeltas(base, deltas);
  ASSERT_TRUE(applied.ok());
  const auto epoch = MaterializeDeltas(base, *applied);
  ASSERT_TRUE(epoch.ok());
  const auto subset = base.SubsetUsers(applied->active_users);
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ(epoch->num_users(), subset->num_users());
  for (UserId u = 0; u < epoch->num_users(); ++u) {
    EXPECT_TRUE(std::ranges::equal(epoch->RatingsOf(u),
                                   subset->RatingsOf(u)))
        << "user " << u;
  }
}

/// The slow reference: every base cell and then every overlay through the
/// builder (a duplicate keeps the last value), then SubsetUsers.
common::StatusOr<data::RatingMatrix> MaterializeThroughBuilder(
    const data::RatingMatrix& base, const AppliedDeltas& applied) {
  data::RatingMatrixBuilder builder(base.num_users(), base.num_items(),
                                    base.scale());
  for (UserId u = 0; u < base.num_users(); ++u) {
    for (const data::RatingEntry& entry : base.RatingsOf(u)) {
      GF_RETURN_IF_ERROR(builder.AddRating(u, entry.item, entry.rating));
    }
  }
  for (const AppliedDeltas::Overlay& overlay : applied.overlays) {
    GF_RETURN_IF_ERROR(
        builder.AddRating(overlay.user, overlay.item, overlay.rating));
  }
  return std::move(builder).Build().SubsetUsers(applied.active_users);
}

void ExpectSameMatrix(const data::RatingMatrix& a,
                      const data::RatingMatrix& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  EXPECT_EQ(a.num_items(), b.num_items());
  EXPECT_EQ(a.scale(), b.scale());
  EXPECT_EQ(a.num_ratings(), b.num_ratings());
  for (UserId u = 0; u < a.num_users(); ++u) {
    EXPECT_TRUE(std::ranges::equal(a.RatingsOf(u), b.RatingsOf(u)))
        << "user " << u;
  }
}

TEST(MaterializeDeltas, EqualsTheBuilderPathOnRandomSequences) {
  // Sparse rows with gaps (every fourth row empty), so rerates land
  // before, between and after a row's items; rerates back to the base
  // value; rerates of users removed later; remove -> re-add round trips.
  constexpr std::int32_t kUsers = 24;
  constexpr std::int32_t kItems = 12;
  int effective = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    data::RatingMatrixBuilder builder(kUsers, kItems, data::RatingScale{});
    for (UserId u = 0; u < kUsers; ++u) {
      if (u % 4 == 0) continue;
      for (ItemId item = 0; item < kItems; ++item) {
        if (rng.Bernoulli(0.3)) {
          ASSERT_TRUE(builder
                          .AddRating(u, item,
                                     static_cast<double>(rng.UniformInt(1, 5)))
                          .ok());
        }
      }
    }
    const data::RatingMatrix base = std::move(builder).Build();
    std::vector<char> active(kUsers, 1);
    std::vector<PopulationDelta> deltas;
    const int length = static_cast<int>(rng.UniformInt(1, 40));
    while (static_cast<int>(deltas.size()) < length) {
      const auto user = static_cast<UserId>(rng.UniformInt(0, kUsers - 1));
      const char is_active = active[static_cast<std::size_t>(user)];
      const std::int64_t pick = rng.UniformInt(0, 9);
      if (!is_active) {
        deltas.push_back({Kind::kAddUser, user});
        active[static_cast<std::size_t>(user)] = 1;
      } else if (pick < 2) {
        deltas.push_back({Kind::kRemoveUser, user});
        active[static_cast<std::size_t>(user)] = 0;
      } else {
        const auto item = static_cast<ItemId>(rng.UniformInt(0, kItems - 1));
        const auto existing = base.GetRating(user, item);
        const double rating =
            existing.has_value() && pick < 4
                ? *existing
                : static_cast<double>(rng.UniformInt(1, 5));
        deltas.push_back({Kind::kRerate, user, item, rating});
      }
    }
    if (std::count(active.begin(), active.end(), 1) == 0) continue;
    const auto applied = ApplyDeltas(base, deltas);
    ASSERT_TRUE(applied.ok()) << applied.status();
    if (!applied->overlays.empty()) ++effective;
    const auto epoch = MaterializeDeltas(base, *applied);
    ASSERT_TRUE(epoch.ok()) << epoch.status();
    const auto reference = MaterializeThroughBuilder(base, *applied);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ExpectSameMatrix(*epoch, *reference);
  }
  EXPECT_GE(effective, 40);
}

TEST(MaterializeDeltas, OverlayPlacementAndRemovedUsers) {
  // User 1's row holds items 2 and 5: overlays land before (0), on (2),
  // between (3) and after (7) them. User 2 is rerated, then removed; user
  // 3 is removed, re-added and rerated back to its base value; user 4
  // rates nothing and gains one cell.
  data::RatingMatrixBuilder builder(5, 8, data::RatingScale{});
  ASSERT_TRUE(builder.AddRating(1, 2, 2.0).ok());
  ASSERT_TRUE(builder.AddRating(1, 5, 4.0).ok());
  ASSERT_TRUE(builder.AddRating(2, 1, 3.0).ok());
  ASSERT_TRUE(builder.AddRating(3, 6, 1.0).ok());
  const data::RatingMatrix base = std::move(builder).Build();
  const std::vector<PopulationDelta> deltas = {
      {Kind::kRerate, 1, 7, 1.0}, {Kind::kRerate, 1, 0, 5.0},
      {Kind::kRerate, 1, 3, 3.0}, {Kind::kRerate, 1, 2, 4.0},
      {Kind::kRerate, 2, 4, 5.0}, {Kind::kRemoveUser, 2},
      {Kind::kRemoveUser, 3},     {Kind::kAddUser, 3},
      {Kind::kRerate, 3, 6, 1.0}, {Kind::kRerate, 4, 0, 2.0},
  };
  const auto applied = ApplyDeltas(base, deltas);
  ASSERT_TRUE(applied.ok()) << applied.status();
  const auto epoch = MaterializeDeltas(base, *applied);
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  const auto reference = MaterializeThroughBuilder(base, *applied);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ExpectSameMatrix(*epoch, *reference);
  // Users {0, 1, 3, 4} re-indexed to {0, 1, 2, 3}.
  const std::vector<data::RatingEntry> row1 = {
      {0, 5.0}, {2, 4.0}, {3, 3.0}, {5, 4.0}, {7, 1.0}};
  EXPECT_TRUE(std::ranges::equal(epoch->RatingsOf(1), row1));
  EXPECT_EQ(epoch->NumRatingsOf(2), 1);
  EXPECT_EQ(epoch->GetRatingOr(3, 0, -1.0), 2.0);
}

TEST(MaterializeDeltas, RejectsFoldsOutOfOrder) {
  data::RatingMatrixBuilder builder(3, 4, data::RatingScale{});
  ASSERT_TRUE(builder.AddRating(0, 1, 2.0).ok());
  const data::RatingMatrix base = std::move(builder).Build();
  AppliedDeltas unsorted_users;
  unsorted_users.active_users = {2, 0};
  unsorted_users.overlays = {{0, 0, 3.0}};
  AppliedDeltas unsorted_overlays;
  unsorted_overlays.active_users = {0, 1, 2};
  unsorted_overlays.overlays = {{1, 0, 3.0}, {0, 3, 3.0}};
  AppliedDeltas out_of_range;
  out_of_range.active_users = {0, 3};
  out_of_range.overlays = {{0, 0, 3.0}};
  for (const AppliedDeltas* applied :
       {&unsorted_users, &unsorted_overlays, &out_of_range}) {
    const auto epoch = MaterializeDeltas(base, *applied);
    ASSERT_FALSE(epoch.ok());
    EXPECT_EQ(epoch.status().code(), common::StatusCode::kInvalidArgument)
        << epoch.status();
  }
}

TEST(DeltaSequenceHash, OrderAndContentSensitive) {
  const std::vector<PopulationDelta> a = {{Kind::kRemoveUser, 1},
                                          {Kind::kRemoveUser, 2}};
  const std::vector<PopulationDelta> b = {{Kind::kRemoveUser, 2},
                                          {Kind::kRemoveUser, 1}};
  std::vector<PopulationDelta> c = a;
  c[1].user = 3;
  EXPECT_EQ(DeltaSequenceHash(a), DeltaSequenceHash(a));
  EXPECT_NE(DeltaSequenceHash(a), DeltaSequenceHash(b));
  EXPECT_NE(DeltaSequenceHash(a), DeltaSequenceHash(c));
  EXPECT_NE(DeltaSequenceHash(a), DeltaSequenceHash({}));
}

TEST(AdaptAssignment, DropsDeparturesAndSeatsArrivals) {
  const std::vector<std::vector<UserId>> previous = {{0, 1, 2}, {3, 4}};
  // User 1 departed; users 5 and 6 arrived.
  const std::vector<UserId> active = {0, 2, 3, 4, 5, 6};
  const auto adapted = AdaptAssignment(previous, active, /*max_groups=*/3);
  // Below max_groups, the first arrival opens a fresh slot; the second
  // joins the smallest existing group (the fresh singleton).
  ASSERT_EQ(adapted.size(), 3u);
  EXPECT_EQ(adapted[0], (std::vector<UserId>{0, 2}));
  EXPECT_EQ(adapted[1], (std::vector<UserId>{3, 4}));
  EXPECT_EQ(adapted[2], (std::vector<UserId>{5, 6}));
}

TEST(AdaptAssignment, RespectsMaxGroupsAndCoversExactlyActive) {
  const std::vector<std::vector<UserId>> previous = {{0}, {1}};
  const std::vector<UserId> active = {0, 1, 2, 3};
  const auto adapted = AdaptAssignment(previous, active, /*max_groups=*/2);
  ASSERT_EQ(adapted.size(), 2u);
  std::vector<UserId> covered;
  for (const auto& group : adapted) {
    covered.insert(covered.end(), group.begin(), group.end());
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, active);
}

TEST(AssignmentToLocal, ReindexesAndRejectsStrays) {
  const std::vector<UserId> active = {2, 5, 9};
  const auto local =
      AssignmentToLocal({{2, 9}, {5}}, active);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(*local,
            (std::vector<std::vector<UserId>>{{0, 2}, {1}}));
  const auto stray = AssignmentToLocal({{2, 7}}, active);
  ASSERT_FALSE(stray.ok());
  EXPECT_EQ(stray.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(StartAssignmentEncoding, RoundTripsThroughSolverOptions) {
  const std::vector<std::vector<UserId>> groups = {{0, 2, 5}, {1, 3}, {4}};
  const std::string encoded = EncodeStartAssignment(groups);
  EXPECT_EQ(encoded, "0,2,5|1,3|4");
  const auto decoded = DecodeStartAssignment(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, groups);

  SolverOptions options;
  options.SetStartAssignment(groups);
  const auto through = options.GetStartAssignment();
  ASSERT_TRUE(through.ok()) << through.status();
  EXPECT_EQ(*through, groups);

  // Absent key decodes to "no warm start", not an error.
  const auto absent = SolverOptions().GetStartAssignment();
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent->empty());
}

TEST(StartAssignmentEncoding, DecodeIsStrict) {
  for (const char* bad : {"a", "0,,1", "0|x", "-1", "2147483648"}) {
    const auto decoded = DecodeStartAssignment(bad);
    ASSERT_FALSE(decoded.ok()) << bad;
    EXPECT_EQ(decoded.status().code(),
              common::StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(DeltaKindTokens, RoundTripAndReject) {
  for (const auto kind :
       {Kind::kAddUser, Kind::kRemoveUser, Kind::kRerate}) {
    const auto parsed = DeltaKindFromString(DeltaKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(DeltaKindFromString("drop_user").ok());
}

}  // namespace
}  // namespace groupform::core
