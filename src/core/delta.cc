#include "core/delta.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "core/solver.h"

namespace groupform::core {

using common::Status;
using common::StatusOr;

const char* DeltaKindToString(PopulationDelta::Kind kind) {
  switch (kind) {
    case PopulationDelta::Kind::kAddUser:
      return "add_user";
    case PopulationDelta::Kind::kRemoveUser:
      return "remove_user";
    case PopulationDelta::Kind::kRerate:
      return "rerate";
  }
  return "?";
}

StatusOr<PopulationDelta::Kind> DeltaKindFromString(
    const std::string& token) {
  for (const auto kind :
       {PopulationDelta::Kind::kAddUser, PopulationDelta::Kind::kRemoveUser,
        PopulationDelta::Kind::kRerate}) {
    if (token == DeltaKindToString(kind)) return kind;
  }
  return Status::InvalidArgument(
      "unknown delta op \"" + token +
      "\" (expected add_user, remove_user, or rerate)");
}

std::uint64_t DeltaSequenceHash(std::span<const PopulationDelta> deltas) {
  std::size_t hash = 0x8f3a1c5d09b64e27ULL;
  for (const PopulationDelta& delta : deltas) {
    common::HashCombineValue(hash, static_cast<int>(delta.kind));
    common::HashCombineValue(hash, delta.user);
    common::HashCombineValue(hash, delta.item);
    common::HashCombineValue(hash, delta.rating);
  }
  return static_cast<std::uint64_t>(hash);
}

StatusOr<AppliedDeltas> ApplyDeltas(
    const data::RatingMatrix& base,
    std::span<const PopulationDelta> deltas) {
  const std::int32_t num_users = base.num_users();
  const std::int32_t num_items = base.num_items();
  std::vector<char> active(static_cast<std::size_t>(num_users), 1);
  std::map<std::pair<UserId, ItemId>, Rating> overlay_cells;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const PopulationDelta& delta = deltas[i];
    const auto bad = [&](const std::string& what) {
      return Status::InvalidArgument(common::StrFormat(
          "delta %zu (%s): %s", i, DeltaKindToString(delta.kind),
          what.c_str()));
    };
    if (delta.user < 0 || delta.user >= num_users) {
      return bad(common::StrFormat("user %d is outside [0, %d)", delta.user,
                                   num_users));
    }
    char& user_active = active[static_cast<std::size_t>(delta.user)];
    switch (delta.kind) {
      case PopulationDelta::Kind::kAddUser:
        if (user_active) {
          return bad(common::StrFormat("user %d is already active",
                                       delta.user));
        }
        user_active = 1;
        break;
      case PopulationDelta::Kind::kRemoveUser:
        if (!user_active) {
          return bad(
              common::StrFormat("user %d is not active", delta.user));
        }
        user_active = 0;
        break;
      case PopulationDelta::Kind::kRerate:
        if (!user_active) {
          return bad(common::StrFormat("user %d is not active (re-add it "
                                       "before rerating)",
                                       delta.user));
        }
        if (delta.item < 0 || delta.item >= num_items) {
          return bad(common::StrFormat("item %d is outside [0, %d)",
                                       delta.item, num_items));
        }
        if (!base.scale().Contains(delta.rating)) {
          return bad(common::StrFormat(
              "rating %g is outside the scale [%g, %g]", delta.rating,
              base.scale().min, base.scale().max));
        }
        overlay_cells[{delta.user, delta.item}] = delta.rating;
        break;
    }
  }
  AppliedDeltas applied;
  applied.active_users.reserve(static_cast<std::size_t>(num_users));
  for (UserId u = 0; u < num_users; ++u) {
    if (active[static_cast<std::size_t>(u)]) {
      applied.active_users.push_back(u);
    }
  }
  if (applied.active_users.empty()) {
    return Status::InvalidArgument(
        "delta sequence leaves no active users");
  }
  for (const auto& [cell, rating] : overlay_cells) {
    // A rerate that lands exactly on the base value is not an effective
    // change — dropping it keeps remove→re-add round-trips (and no-op
    // rerates) on the shared base matrix.
    const auto existing = base.GetRating(cell.first, cell.second);
    if (existing.has_value() && *existing == rating) continue;
    applied.overlays.push_back({cell.first, cell.second, rating});
  }
  applied.identical_to_base =
      applied.overlays.empty() &&
      static_cast<std::int32_t>(applied.active_users.size()) == num_users;
  return applied;
}

StatusOr<data::RatingMatrix> MaterializeDeltas(
    const data::RatingMatrix& base, const AppliedDeltas& applied) {
  if (applied.overlays.empty()) {
    return base.SubsetUsers(applied.active_users);
  }
  // One merge pass in CSR order: each active user's base row (ascending
  // items) with that user's overlays (sorted by (user, item)); an overlay
  // replaces the base cell of its item. Overlays of users that are no
  // longer active are skipped. FromSortedCsr validates the result.
  const auto unordered = std::adjacent_find(
      applied.overlays.begin(), applied.overlays.end(),
      [](const AppliedDeltas::Overlay& a, const AppliedDeltas::Overlay& b) {
        return std::pair(a.user, a.item) >= std::pair(b.user, b.item);
      });
  if (unordered != applied.overlays.end()) {
    return Status::InvalidArgument(common::StrFormat(
        "overlay (%d, %d) is out of (user, item) order", unordered->user,
        unordered->item));
  }
  std::size_t num_entries = applied.overlays.size();
  UserId previous = -1;
  for (const UserId u : applied.active_users) {
    if (u <= previous || u >= base.num_users()) {
      return Status::InvalidArgument(common::StrFormat(
          "active user %d is out of range or out of order", u));
    }
    num_entries += base.RatingsOf(u).size();
    previous = u;
  }
  std::vector<std::size_t> row_offsets;
  row_offsets.reserve(applied.active_users.size() + 1);
  row_offsets.push_back(0);
  std::vector<data::RatingEntry> entries;
  entries.reserve(num_entries);
  auto overlay = applied.overlays.begin();
  const auto overlays_end = applied.overlays.end();
  for (const UserId u : applied.active_users) {
    while (overlay != overlays_end && overlay->user < u) ++overlay;
    const auto row = base.RatingsOf(u);
    auto cell = row.begin();
    for (; overlay != overlays_end && overlay->user == u; ++overlay) {
      for (; cell != row.end() && cell->item < overlay->item; ++cell) {
        entries.push_back(*cell);
      }
      if (cell != row.end() && cell->item == overlay->item) ++cell;
      entries.push_back({overlay->item, overlay->rating});
    }
    entries.insert(entries.end(), cell, row.end());
    row_offsets.push_back(entries.size());
  }
  return data::RatingMatrix::FromSortedCsr(std::move(row_offsets),
                                           std::move(entries),
                                           base.num_items(), base.scale());
}

std::vector<std::vector<UserId>> AdaptAssignment(
    const std::vector<std::vector<UserId>>& previous_groups,
    const std::vector<UserId>& active_users, int max_groups) {
  std::vector<std::vector<UserId>> groups;
  groups.reserve(previous_groups.size());
  std::vector<char> placed(active_users.size(), 0);
  const auto local_index = [&](UserId user) -> std::ptrdiff_t {
    const auto it = std::lower_bound(active_users.begin(),
                                     active_users.end(), user);
    if (it == active_users.end() || *it != user) return -1;
    return it - active_users.begin();
  };
  for (const std::vector<UserId>& previous : previous_groups) {
    std::vector<UserId> kept;
    for (const UserId user : previous) {
      const std::ptrdiff_t index = local_index(user);
      if (index < 0) continue;  // departed
      kept.push_back(user);
      placed[static_cast<std::size_t>(index)] = 1;
    }
    groups.push_back(std::move(kept));
  }
  if (groups.empty()) groups.push_back({});
  for (std::size_t i = 0; i < active_users.size(); ++i) {
    if (placed[i]) continue;
    // Arrival: smallest group wins, ties to the lowest index; a fresh
    // slot opens only while under max_groups and no existing group is
    // empty (an existing empty group has a lower index and wins the tie).
    std::size_t best = 0;
    for (std::size_t g = 1; g < groups.size(); ++g) {
      if (groups[g].size() < groups[best].size()) best = g;
    }
    if (static_cast<int>(groups.size()) < max_groups &&
        !groups[best].empty()) {
      groups.push_back({});
      best = groups.size() - 1;
    }
    groups[best].push_back(active_users[i]);
  }
  for (std::vector<UserId>& group : groups) {
    std::sort(group.begin(), group.end());
  }
  return groups;
}

StatusOr<std::vector<std::vector<UserId>>> AssignmentToLocal(
    const std::vector<std::vector<UserId>>& groups,
    const std::vector<UserId>& active_users) {
  std::vector<std::vector<UserId>> local;
  local.reserve(groups.size());
  for (const std::vector<UserId>& group : groups) {
    std::vector<UserId> mapped;
    mapped.reserve(group.size());
    for (const UserId user : group) {
      const auto it = std::lower_bound(active_users.begin(),
                                       active_users.end(), user);
      if (it == active_users.end() || *it != user) {
        return Status::InvalidArgument(common::StrFormat(
            "assignment member %d is not an active user", user));
      }
      mapped.push_back(static_cast<UserId>(it - active_users.begin()));
    }
    local.push_back(std::move(mapped));
  }
  return local;
}

StatusOr<std::vector<std::vector<UserId>>> CarryAssignment(
    const FormationResult& previous,
    const std::vector<UserId>& previous_active,
    const std::vector<UserId>& active_users, int max_groups) {
  std::vector<std::vector<UserId>> carried;
  carried.reserve(previous.groups.size());
  for (const FormedGroup& group : previous.groups) {
    std::vector<UserId>& members = carried.emplace_back();
    members.reserve(group.members.size());
    for (const UserId local : group.members) {
      members.push_back(previous_active[static_cast<std::size_t>(local)]);
    }
  }
  return AssignmentToLocal(
      AdaptAssignment(carried, active_users, max_groups), active_users);
}

std::string EncodeStartAssignment(
    const std::vector<std::vector<UserId>>& groups) {
  std::string encoded;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) encoded.push_back('|');
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) encoded.push_back(',');
      encoded += common::StrFormat("%d", groups[g][i]);
    }
  }
  return encoded;
}

StatusOr<std::vector<std::vector<UserId>>> DecodeStartAssignment(
    const std::string& encoded) {
  std::vector<std::vector<UserId>> groups;
  if (encoded.empty()) return groups;
  const auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("option \"" +
                                   std::string(kStartAssignmentKey) +
                                   "\": " + what);
  };
  std::vector<UserId> current;
  std::string token;
  const auto flush_token = [&]() -> Status {
    if (token.empty()) {
      return bad("empty member id (expected \"0,2|1,3\" groups)");
    }
    long long parsed = 0;
    if (!common::ParseInt64(token, &parsed) || parsed < 0 ||
        parsed > 2147483647ll) {
      return bad("member id \"" + token +
                 "\" is not an integer in [0, 2147483647]");
    }
    current.push_back(static_cast<UserId>(parsed));
    token.clear();
    return Status::Ok();
  };
  for (const char c : encoded) {
    if (c == '|') {
      if (!token.empty()) GF_RETURN_IF_ERROR(flush_token());
      groups.push_back(std::move(current));
      current.clear();
    } else if (c == ',') {
      GF_RETURN_IF_ERROR(flush_token());
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) GF_RETURN_IF_ERROR(flush_token());
  groups.push_back(std::move(current));
  return groups;
}

SolverOptions& SolverOptions::SetStartAssignment(
    const std::vector<std::vector<UserId>>& groups) {
  return Set(kStartAssignmentKey, EncodeStartAssignment(groups));
}

StatusOr<std::vector<std::vector<UserId>>>
SolverOptions::GetStartAssignment() const {
  const auto it = entries_.find(kStartAssignmentKey);
  if (it == entries_.end() || it->second.empty()) {
    return std::vector<std::vector<UserId>>();
  }
  return DecodeStartAssignment(it->second);
}

}  // namespace groupform::core
