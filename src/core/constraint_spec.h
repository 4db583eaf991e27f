#ifndef GROUPFORM_CORE_CONSTRAINT_SPEC_H_
#define GROUPFORM_CORE_CONSTRAINT_SPEC_H_

// Deployment-shape constraints on a formation problem (DESIGN.md §17):
// group-size bounds, must-link / cannot-link user pairs, and a per-user
// fairness floor — the natural dual of Least Misery. A ConstraintSpec
// rides on FormationProblem; unconstrained solvers ignore it entirely
// (serving refuses to hand them one), the constrained family
// (core/constrained.h) enforces it. The spec is
// pure data with no matrix knowledge, so it lives below formation.h and
// travels the wire verbatim (docs/PROTOCOL.md "constraints").

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace groupform::core {

/// Which constraints apply and with what parameters. Default-constructed
/// == unconstrained (Empty() true); every field renders off-default on
/// the wire so an empty spec is invisible there.
struct ConstraintSpec {
  /// Every *formed* (non-empty) group must have at least this many
  /// members. 1 = no lower bound.
  int min_group_size = 1;
  /// Every group may have at most this many members. 0 = unbounded.
  int max_group_size = 0;

  /// Users that must end up in the same group. Pairs compose
  /// transitively: {a,b} and {b,c} fuse a, b, c into one atom.
  std::vector<std::pair<UserId, UserId>> must_link;
  /// Users that must not share a group.
  std::vector<std::pair<UserId, UserId>> cannot_link;

  /// Fairness floor: every user's own satisfaction with their group's
  /// recommendation list (mean own-rating over the list, the
  /// constrained family's MeanAffinity) should reach min_user_sat.
  /// A soft constraint — fairgreedy repairs toward it and reports the
  /// residual count in FormationResult::floor_violations.
  bool has_min_user_sat = false;
  double min_user_sat = 0.0;

  /// True iff the spec constrains nothing (the default).
  bool Empty() const {
    return min_group_size <= 1 && max_group_size == 0 && must_link.empty() &&
           cannot_link.empty() && !has_min_user_sat;
  }
  bool HasSizeBounds() const {
    return min_group_size > 1 || max_group_size > 0;
  }
  bool HasLinks() const {
    return !must_link.empty() || !cannot_link.empty();
  }

  /// Population-independent sanity: bounds ordered, link pairs distinct
  /// users, no pair both must- and cannot-linked. INVALID_ARGUMENT with
  /// the offending numbers otherwise. Wire parsing calls this.
  common::Status ValidateStructure() const;

  /// ValidateStructure plus link ids within [0, num_users).
  /// FormationProblem::Validate calls this — deliberately *without* the
  /// size-feasibility checks, so unconstrained solvers still run on a
  /// problem whose bounds only the constrained family cares about.
  common::Status ValidateForPopulation(std::int64_t num_users) const;

  /// ValidateForPopulation plus size-bound feasibility: `num_users` users
  /// must fit `min_group_size`..`max_group_size` groups within at most
  /// `max_groups` of them. INVALID_ARGUMENT names the failing bound and
  /// the offending numbers. The constrained solvers call this.
  common::Status Validate(std::int64_t num_users, int max_groups) const;

  /// Canonical compact encoding, "" for an empty spec — stable across
  /// runs, so it can extend solver labels and serve-side memo keys.
  std::string ToString() const;
};

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_CONSTRAINT_SPEC_H_
