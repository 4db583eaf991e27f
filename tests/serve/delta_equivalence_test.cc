// The `groupform.delta/1` equivalence properties (DESIGN.md §13),
// checked over randomized (but seeded) delta sequences:
//
//  1. A delta request with a greedy-family solver is byte-identical —
//     after clearing the delta-only response fields — to a fresh
//     `groupform.request/1` on an inline instance rebuilt from the
//     post-delta population.
//  2. Warm-started localsearch (the delta fold) never reports a worse
//     objective than a cold solve of the same epoch.
//  3. `objective_delta_vs_previous` is exactly the difference between
//     the epoch's objective and its one-shorter prefix's objective,
//     which is 0 when that prefix removed every user.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/delta.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

using Kind = core::PopulationDelta::Kind;

constexpr std::int32_t kUsers = 12;
constexpr std::int32_t kItems = 6;

/// Deterministic inline base instance: every (user, item) cell on a
/// half-point grid in [1, 5], so rerates can hit exact cell values.
InstanceSpec BaseInstance() {
  InstanceSpec spec;
  spec.kind = "inline";
  spec.users = kUsers;
  spec.items = kItems;
  spec.scale_min = 1.0;
  spec.scale_max = 5.0;
  for (UserId u = 0; u < kUsers; ++u) {
    for (ItemId i = 0; i < kItems; ++i) {
      InstanceSpec::Triplet triplet;
      triplet.user = u;
      triplet.item = i;
      triplet.rating = 1.0 + 0.5 * ((u * 7 + i * 3) % 9);
      spec.ratings.push_back(triplet);
    }
  }
  return spec;
}

/// A valid random sequence against the base instance: removals keep at
/// least 4 users active, adds re-activate removed users, rerates target
/// active users (skipped entirely when `membership_only`).
std::vector<core::PopulationDelta> RandomSequence(std::mt19937& rng,
                                                  bool membership_only) {
  std::vector<char> active(kUsers, 1);
  int num_active = kUsers;
  std::vector<core::PopulationDelta> deltas;
  const auto pick = [&rng](int bound) {
    return static_cast<int>(rng() % static_cast<unsigned>(bound));
  };
  const int length = 1 + pick(6);
  for (int i = 0; i < length; ++i) {
    const int op = pick(membership_only ? 2 : 3);
    if (op == 0 && num_active > 4) {
      int user = pick(kUsers);
      while (!active[static_cast<std::size_t>(user)]) user = pick(kUsers);
      active[static_cast<std::size_t>(user)] = 0;
      --num_active;
      deltas.push_back({Kind::kRemoveUser, user});
    } else if (op == 1 && num_active < kUsers) {
      int user = pick(kUsers);
      while (active[static_cast<std::size_t>(user)]) user = pick(kUsers);
      active[static_cast<std::size_t>(user)] = 1;
      ++num_active;
      deltas.push_back({Kind::kAddUser, user});
    } else if (!membership_only) {
      int user = pick(kUsers);
      while (!active[static_cast<std::size_t>(user)]) user = pick(kUsers);
      deltas.push_back({Kind::kRerate, user, pick(kItems),
                        1.0 + 0.5 * pick(9)});
    }
  }
  return deltas;
}

/// The post-delta population as a fresh inline instance (what a client
/// would send as a plain groupform.request/1 after the same mutations).
InstanceSpec PostDeltaInstance(
    const InstanceSpec& base,
    std::span<const core::PopulationDelta> deltas) {
  const auto matrix = BuildInstance(base);
  EXPECT_TRUE(matrix.ok()) << matrix.status();
  const auto applied = core::ApplyDeltas(*matrix, deltas);
  EXPECT_TRUE(applied.ok()) << applied.status();
  const auto epoch = core::MaterializeDeltas(*matrix, *applied);
  EXPECT_TRUE(epoch.ok()) << epoch.status();
  InstanceSpec spec;
  spec.kind = "inline";
  spec.users = epoch->num_users();
  spec.items = epoch->num_items();
  spec.scale_min = base.scale_min;
  spec.scale_max = base.scale_max;
  for (UserId u = 0; u < epoch->num_users(); ++u) {
    for (const data::RatingEntry& entry : epoch->RatingsOf(u)) {
      InstanceSpec::Triplet triplet;
      triplet.user = u;
      triplet.item = entry.item;
      triplet.rating = entry.rating;
      spec.ratings.push_back(triplet);
    }
  }
  return spec;
}

Request DeltaRequest(const std::string& solver,
                     std::vector<core::PopulationDelta> deltas) {
  Request request;
  request.id = "eq";
  request.solver = solver;
  request.is_delta = true;
  request.deltas = std::move(deltas);
  request.instance = BaseInstance();
  request.problem.k = 3;
  request.problem.groups = 4;
  request.include_groups = true;
  return request;
}

class DeltaEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
};

TEST_F(DeltaEquivalenceTest, GreedyDeltaMatchesFreshResolveByteForByte) {
  for (const bool membership_only : {true, false}) {
    std::mt19937 rng(membership_only ? 2024u : 4048u);
    for (int trial = 0; trial < 8; ++trial) {
      const auto deltas = RandomSequence(rng, membership_only);
      Session session;
      Request delta_request = DeltaRequest("greedy", deltas);
      Response via_delta = session.Execute(delta_request);
      ASSERT_EQ(via_delta.state, eval::SweepCellState::kOk)
          << via_delta.status;

      Request fresh = delta_request;
      fresh.is_delta = false;
      fresh.deltas.clear();
      fresh.instance = PostDeltaInstance(delta_request.instance, deltas);
      const Response via_fresh = session.Execute(fresh);
      ASSERT_EQ(via_fresh.state, eval::SweepCellState::kOk)
          << via_fresh.status;

      // Clearing the delta-only envelope fields must leave the exact
      // bytes of the fresh response: same objective, groups, metrics,
      // all canonically rendered.
      via_delta.is_delta = false;
      via_delta.epoch.clear();
      via_delta.objective_delta_vs_previous = 0.0;
      via_delta.warm_start_passes = 0;
      EXPECT_EQ(RenderResponse(via_delta), RenderResponse(via_fresh))
          << "membership_only=" << membership_only << " trial=" << trial;
    }
  }
}

TEST_F(DeltaEquivalenceTest, WarmStartedLocalsearchNeverWorseThanCold) {
  std::mt19937 rng(7117u);
  for (int trial = 0; trial < 6; ++trial) {
    const auto deltas = RandomSequence(rng, /*membership_only=*/false);
    Session session;
    Request delta_request = DeltaRequest("localsearch", deltas);
    const Response warm = session.Execute(delta_request);
    ASSERT_EQ(warm.state, eval::SweepCellState::kOk) << warm.status;
    EXPECT_GE(warm.warm_start_passes, 0);

    Request cold = delta_request;
    cold.is_delta = false;
    cold.deltas.clear();
    cold.instance = PostDeltaInstance(delta_request.instance, deltas);
    const Response cold_response = session.Execute(cold);
    ASSERT_EQ(cold_response.state, eval::SweepCellState::kOk)
        << cold_response.status;
    EXPECT_GE(warm.objective, cold_response.objective) << "trial=" << trial;
  }
}

TEST_F(DeltaEquivalenceTest, ObjectiveDeltaPricesAgainstThePrefixEpoch) {
  std::mt19937 rng(515u);
  for (const char* solver : {"greedy", "localsearch", "veckmeans"}) {
    const auto deltas = RandomSequence(rng, /*membership_only=*/false);
    if (deltas.empty()) continue;
    Session session;
    const Response full =
        session.Execute(DeltaRequest(solver, deltas));
    ASSERT_EQ(full.state, eval::SweepCellState::kOk) << full.status;
    auto prefix = deltas;
    prefix.pop_back();
    const Response previous =
        session.Execute(DeltaRequest(solver, prefix));
    ASSERT_EQ(previous.state, eval::SweepCellState::kOk)
        << previous.status;
    EXPECT_EQ(full.objective_delta_vs_previous,
              full.objective - previous.objective)
        << solver;
  }
}

TEST_F(DeltaEquivalenceTest, EmptySequenceIsItsOwnPrevious) {
  Session session;
  const Response response =
      session.Execute(DeltaRequest("greedy", {}));
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  EXPECT_EQ(response.objective_delta_vs_previous, 0.0);
  // A cancelling sequence shares the base matrix's cache entry: one
  // instance, no epoch copy.
  EXPECT_EQ(session.cache().stats().entries, 1);
}

TEST_F(DeltaEquivalenceTest, EmptiedPreviousEpochPricesAtZero) {
  // Two users; the prefix "remove 0, remove 1" leaves nobody, the full
  // sequence re-adds user 0. The previous epoch has no population to
  // solve, so its objective is 0 on every route.
  InstanceSpec two_users;
  two_users.kind = "inline";
  two_users.users = 2;
  two_users.items = 3;
  for (UserId u = 0; u < 2; ++u) {
    for (ItemId i = 0; i < 3; ++i) {
      two_users.ratings.push_back({u, i, 1.0 + u + i});
    }
  }
  const std::vector<core::PopulationDelta> deltas = {
      {Kind::kRemoveUser, 0}, {Kind::kRemoveUser, 1}, {Kind::kAddUser, 0}};
  for (const char* solver : {"greedy", "localsearch", "sa", "veckmeans"}) {
    Session session;
    Request request = DeltaRequest(solver, deltas);
    request.instance = two_users;
    request.problem.k = 2;
    request.problem.groups = 2;
    const Response response = session.Execute(request);
    EXPECT_EQ(response.state, eval::SweepCellState::kOk)
        << solver << ": " << response.status;
    if (response.state != eval::SweepCellState::kOk) continue;
    EXPECT_EQ(response.objective_delta_vs_previous, response.objective)
        << solver;

    // One more delta: the emptied epoch is now two back, and the fold
    // restarts cold after it instead of failing.
    request.deltas.push_back({Kind::kAddUser, 1});
    const Response longer = session.Execute(request);
    ASSERT_EQ(longer.state, eval::SweepCellState::kOk)
        << solver << ": " << longer.status;
    EXPECT_EQ(longer.objective_delta_vs_previous,
              longer.objective - response.objective)
        << solver;
  }
}

}  // namespace
}  // namespace groupform::serve
