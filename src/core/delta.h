#ifndef GROUPFORM_CORE_DELTA_H_
#define GROUPFORM_CORE_DELTA_H_

// Streaming population deltas (DESIGN.md §13): the serving layer's
// `groupform.delta/1` requests and the eval layer's delta_vs_resolve
// bench both describe a mutated population as an ordered sequence of
// add_user / remove_user / rerate operations against a base matrix.
// This header owns the shared model: validating and folding a sequence
// into an active set plus rating overlays (ApplyDeltas), materialising
// the post-delta "epoch" matrix with densely re-indexed users
// (MaterializeDeltas), hashing a sequence into an epoch cache key
// (DeltaSequenceHash), and carrying a previous epoch's partition into
// the next one as a warm start for exact::LocalSearchSolver
// (AdaptAssignment + the start-assignment encoding consumed through
// core::SolverOptions).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/formation.h"
#include "data/rating_matrix.h"

namespace groupform::core {

/// One population mutation. All users of the base matrix start *active*;
/// remove_user deactivates an active user, add_user re-activates a
/// removed one, rerate sets (or overrides) one rating cell of an active
/// user. The sequence is order-sensitive: remove(3) then add(3) is legal
/// and cancels out, add(3) while 3 is active is an error.
struct PopulationDelta {
  enum class Kind { kAddUser, kRemoveUser, kRerate };
  Kind kind = Kind::kAddUser;
  UserId user = 0;
  /// kRerate only.
  ItemId item = 0;
  Rating rating = 0.0;
};

/// Wire token for a delta kind: "add_user" | "remove_user" | "rerate".
const char* DeltaKindToString(PopulationDelta::Kind kind);

/// Inverse of DeltaKindToString; INVALID_ARGUMENT for unknown tokens.
common::StatusOr<PopulationDelta::Kind> DeltaKindFromString(
    const std::string& token);

/// Order-sensitive content hash of a delta sequence. Two requests with
/// the same base instance and the same ordered deltas share one epoch
/// cache entry; any reordering, insertion, or value change yields a new
/// epoch key.
std::uint64_t DeltaSequenceHash(std::span<const PopulationDelta> deltas);

/// The folded effect of a validated delta sequence on a base matrix.
struct AppliedDeltas {
  /// Active base-matrix user ids, ascending. The epoch matrix re-indexes
  /// them densely in this order (epoch-local id i = active_users[i]).
  std::vector<UserId> active_users;
  /// Effective rating overlays — (base user, item, rating) cells whose
  /// final value differs from the base matrix — sorted by (user, item).
  struct Overlay {
    UserId user = 0;
    ItemId item = 0;
    Rating rating = 0.0;
  };
  std::vector<Overlay> overlays;
  /// True when the sequence cancels out entirely (every user active, no
  /// effective overlay): the epoch matrix IS the base matrix, so callers
  /// can share the base instead of copying (copy-on-first-effective-
  /// delta, DESIGN.md §13).
  bool identical_to_base = false;
};

/// Validates and folds `deltas` against `base`. INVALID_ARGUMENT — never
/// a GF_CHECK abort — for an out-of-range user or item id, add_user of an
/// active user, remove_user of an inactive user, rerate of an inactive
/// user or a rating outside the base scale, or a sequence that leaves no
/// active user; messages name the offending delta index.
common::StatusOr<AppliedDeltas> ApplyDeltas(
    const data::RatingMatrix& base,
    std::span<const PopulationDelta> deltas);

/// The epoch matrix: `base` with the overlays applied, subset to the
/// active users in ascending base-id order (dense epoch-local ids, item
/// ids preserved). One merge of each active row with its overlays into
/// RatingMatrix::FromSortedCsr, so `applied` must keep ApplyDeltas's
/// order (INVALID_ARGUMENT otherwise). Callers that care about sharing
/// should check `applied.identical_to_base` first — this function always
/// builds a fresh matrix.
common::StatusOr<data::RatingMatrix> MaterializeDeltas(
    const data::RatingMatrix& base, const AppliedDeltas& applied);

/// Carries a previous epoch's partition (base-id members over
/// `previous_groups`'s own active set) onto a new active set: departed
/// users are dropped, arrivals are appended to the currently smallest
/// group (ties → lowest group index; a fresh empty slot is opened while
/// fewer than `max_groups` groups exist), and every group's members are
/// re-sorted ascending. Deterministic in its inputs; the result is a
/// partition of exactly `active_users`, still in base ids.
std::vector<std::vector<UserId>> AdaptAssignment(
    const std::vector<std::vector<UserId>>& previous_groups,
    const std::vector<UserId>& active_users, int max_groups);

/// Re-indexes a base-id partition into epoch-local ids (positions in the
/// ascending `active_users`). INVALID_ARGUMENT when a member is not an
/// active user.
common::StatusOr<std::vector<std::vector<UserId>>> AssignmentToLocal(
    const std::vector<std::vector<UserId>>& groups,
    const std::vector<UserId>& active_users);

/// The warm start a previous epoch's solution gives the next epoch:
/// `previous`'s groups (members in the previous epoch's local ids, mapped
/// to base ids through its ascending `previous_active`) carried onto
/// `active_users` by AdaptAssignment, then re-indexed into the new
/// epoch's local ids by AssignmentToLocal.
common::StatusOr<std::vector<std::vector<UserId>>> CarryAssignment(
    const FormationResult& previous,
    const std::vector<UserId>& previous_active,
    const std::vector<UserId>& active_users, int max_groups);

/// The printable encoding a warm-start partition travels in inside a
/// SolverOptions bag (and therefore the wire protocol and sweep series):
/// groups joined with '|', members with ',' — "0,2,5|1,3|4". Decode is
/// strict: INVALID_ARGUMENT for anything but non-negative int32 ids.
std::string EncodeStartAssignment(
    const std::vector<std::vector<UserId>>& groups);
common::StatusOr<std::vector<std::vector<UserId>>> DecodeStartAssignment(
    const std::string& encoded);

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_DELTA_H_
