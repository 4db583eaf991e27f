#include "exact/subset_dp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace groupform::exact {
namespace {

using common::Status;
using core::FormationResult;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Members encoded by a bit mask, in ascending user order.
std::vector<UserId> MaskMembers(std::uint32_t mask) {
  std::vector<UserId> members;
  while (mask != 0) {
    const int bit = std::countr_zero(mask);
    members.push_back(static_cast<UserId>(bit));
    mask &= mask - 1;
  }
  return members;
}

}  // namespace

common::StatusOr<FormationResult> SubsetDpSolver::Solve(
    std::uint64_t) const {
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  const int max_users = std::min(options_.max_users, kMaxUsersCeiling);
  if (n > max_users) {
    return Status::ResourceExhausted(common::StrFormat(
        "SubsetDpSolver handles at most %d users, got %d (use "
        "LocalSearchSolver for larger instances)",
        max_users, n));
  }
  // Group scores cover the full catalogue whatever candidate_depth says.
  core::FormationProblem full_catalogue = problem_;
  full_catalogue.candidate_depth = 0;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  const std::uint32_t full = (1u << n) - 1u;
  const std::size_t num_masks = static_cast<std::size_t>(full) + 1;

  // Exact score of every non-empty subset as one group.
  std::vector<double> group_score(num_masks, 0.0);
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    group_score[mask] =
        core::ScoreGroup(full_catalogue, scorer, MaskMembers(mask))
            .satisfaction;
  }

  const int ell = std::min(problem_.max_groups, n);
  // f[j][mask]: best objective for partitioning mask into <= j groups.
  // choice[j][mask]: the block containing mask's lowest bit in an optimal
  // partition.
  std::vector<std::vector<double>> f(
      static_cast<std::size_t>(ell) + 1,
      std::vector<double>(num_masks, kNegInf));
  std::vector<std::vector<std::uint32_t>> choice(
      static_cast<std::size_t>(ell) + 1,
      std::vector<std::uint32_t>(num_masks, 0));
  for (int j = 0; j <= ell; ++j) f[static_cast<std::size_t>(j)][0] = 0.0;

  for (int j = 1; j <= ell; ++j) {
    auto& fj = f[static_cast<std::size_t>(j)];
    const auto& fprev = f[static_cast<std::size_t>(j) - 1];
    auto& cj = choice[static_cast<std::size_t>(j)];
    for (std::uint32_t mask = 1; mask <= full; ++mask) {
      const std::uint32_t low = mask & (~mask + 1);  // lowest set bit
      double best = kNegInf;
      std::uint32_t best_block = 0;
      // Enumerate submasks of mask that contain `low`: iterate submasks of
      // rest = mask without low, and add low back.
      const std::uint32_t rest = mask ^ low;
      std::uint32_t sub = rest;
      for (;;) {
        const std::uint32_t block = sub | low;
        const double remainder = fprev[mask ^ block];
        if (remainder != kNegInf) {
          const double value = remainder + group_score[block];
          if (value > best) {
            best = value;
            best_block = block;
          }
        }
        if (sub == 0) break;
        sub = (sub - 1) & rest;
      }
      fj[mask] = best;
      cj[mask] = best_block;
    }
  }

  // Reconstruct the optimal partition.
  std::vector<std::vector<UserId>> groups;
  std::uint32_t mask = full;
  int j = ell;
  while (mask != 0) {
    GF_CHECK_GT(j, 0);
    const std::uint32_t block = choice[static_cast<std::size_t>(j)][mask];
    GF_CHECK_NE(block, 0u);
    groups.push_back(MaskMembers(block));
    mask ^= block;
    --j;
  }
  FormationResult result =
      core::PackageGroups(full_catalogue, scorer, groups);
  result.algorithm = "OPT-DP";
  GF_CHECK(std::abs(result.objective -
                    f[static_cast<std::size_t>(ell)][full]) < 1e-9);
  return result;
}

common::StatusOr<FormationResult> BruteForceSolver::Solve(
    std::uint64_t) const {
  GF_RETURN_IF_ERROR(problem_.Validate());
  const int n = problem_.Store().num_users();
  const int max_users = std::min(options_.max_users, kMaxUsersCeiling);
  if (n > max_users) {
    return Status::ResourceExhausted(common::StrFormat(
        "BruteForceSolver handles at most %d users, got %d", max_users, n));
  }
  // Group scores cover the full catalogue whatever candidate_depth says.
  core::FormationProblem full_catalogue = problem_;
  full_catalogue.candidate_depth = 0;
  const grouprec::GroupScorer scorer = problem_.MakeScorer();
  const int ell = std::min(problem_.max_groups, n);

  // Enumerate set partitions with at most `ell` blocks via restricted
  // growth strings: assignment[u] <= 1 + max(assignment[0..u-1]).
  std::vector<int> assignment(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<UserId>> best_blocks;
  double best_value = kNegInf;

  const auto evaluate = [&]() {
    const int num_blocks =
        1 + *std::max_element(assignment.begin(), assignment.end());
    std::vector<std::vector<UserId>> blocks(
        static_cast<std::size_t>(num_blocks));
    for (int u = 0; u < n; ++u) {
      blocks[static_cast<std::size_t>(assignment[static_cast<std::size_t>(
          u)])].push_back(static_cast<UserId>(u));
    }
    double value = 0.0;
    for (const auto& block : blocks) {
      value += core::ScoreGroup(full_catalogue, scorer, block).satisfaction;
    }
    if (value > best_value) {
      best_value = value;
      best_blocks = std::move(blocks);
    }
  };

  // Iterative RGS enumeration.
  const auto enumerate = [&](auto&& self, int u, int max_used) -> void {
    if (u == n) {
      evaluate();
      return;
    }
    const int limit = std::min(max_used + 1, ell - 1);
    for (int g = 0; g <= limit; ++g) {
      assignment[static_cast<std::size_t>(u)] = g;
      self(self, u + 1, std::max(max_used, g));
    }
  };
  enumerate(enumerate, 0, -1);

  FormationResult result =
      core::PackageGroups(full_catalogue, scorer, best_blocks);
  result.algorithm = "OPT-BF";
  return result;
}

}  // namespace groupform::exact
