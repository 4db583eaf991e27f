#ifndef GROUPFORM_CORE_CONSTRAINED_H_
#define GROUPFORM_CORE_CONSTRAINED_H_

// The constrained formation family (DESIGN.md §17): greedy seeds repaired
// into deployment shapes — capacity bounds, must-link / cannot-link user
// pairs, per-user fairness floors — plus the checker that keeps every
// constrained solver honest. Three registry names, strictly nested in
// power, run one pipeline:
//
//   capgreedy   size bounds only
//   pairgreedy  sizes + link pairs
//   fairgreedy  sizes + links + floor
//
// Each member reads FormationProblem::constraints and rejects the parts
// of the spec it does not support with INVALID_ARGUMENT — never a
// silently-violating OK. The fairness floor is soft: fairgreedy repairs
// toward it and reports the residual count in
// FormationResult::floor_violations.


#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::core {

/// A user's own satisfaction with a recommended list: mean own-rating
/// over the list's items under the problem's missing policy (kZero
/// scores a missing rating 0, everything else the scale minimum). The
/// fairness floor `ConstraintSpec::min_user_sat` is measured in this
/// unit, and merge/relocation targets are chosen by its group mean.
double UserSatisfaction(const FormationProblem& problem, UserId user,
                        const grouprec::GroupTopK& list);

/// Checks `result` against `spec`: ValidatePartition plus size bounds on
/// every formed group, must-link pairs co-resident, cannot-link pairs
/// separated. Returns FAILED_PRECONDITION naming the first violated
/// constraint. The fairness floor is *not* a failure here — when
/// `floor_violations` is non-null it receives the number of users below
/// `spec.min_user_sat` (0 when no floor is set), which callers compare
/// against FormationResult::floor_violations.
common::Status CheckPartition(const FormationProblem& problem,
                              const ConstraintSpec& spec,
                              const FormationResult& result,
                              int* floor_violations = nullptr);

/// The family's registry face. Every member runs the same pipeline over
/// problem.constraints:
///
///   1. reject the spec parts the member does not support;
///   2. problem.Validate(), then ConstraintSpec::Validate(n, max_groups)
///      — the one size-feasibility check;
///   3. must-link atoms (transitive closure of the pairs; without links
///      every user is a singleton atom) and cannot-link adversaries,
///      rejecting contradictory links and atoms above max_group_size;
///   4. greedy seed;
///   5. oversize repair, the one member-specific step:
///      * capgreedy carves capacity-sized parts off the back of oversized
///        groups while spare group slots exist (free under LM, score-
///        redistributing under AV), then rebalances the overflow first-fit
///        into groups with free capacity;
///      * pairgreedy / fairgreedy consolidate each multi-member atom into
///        the group holding most of it (ties to the lowest index),
///        separate co-resident cannot-link pairs by moving the smaller
///        atom to its best conflict-free group, and shed atoms from
///        oversized groups into their best feasible group;
///   6. undersize merge: smallest undersized group first, into the
///      feasible group (capacity + links) whose current list its members
///      like most by mean own-rating, ties to the lowest index;
///   7. fairgreedy only: one fairness pass relocating every atom below
///      min_user_sat into the feasible group its members like best (the
///      source either stays >= min_group_size or empties), then counting
///      the users still below the floor into floor_violations;
///   8. honest packaging: every group's list and score recomputed, so the
///      objective is the true objective of the constrained partition.
///
/// Every rejection is INVALID_ARGUMENT naming the bound, users and
/// numbers involved. All members are deterministic (the seed is ignored)
/// and byte-identical at every thread count.
class ConstrainedGreedySolver : public FormationSolver {
 public:
  enum class Member { kCap, kPair, kFair };
  static constexpr Member kMembers[] = {Member::kCap, Member::kPair,
                                        Member::kFair};

  /// "capgreedy", "pairgreedy", "fairgreedy": the registry name of
  /// `member`, which serving also uses to tell the family apart.
  static const char* RegistryName(Member member);

  ConstrainedGreedySolver(const FormationProblem& problem, Member member)
      : problem_(problem), member_(member) {}

  common::StatusOr<FormationResult> Solve(std::uint64_t seed) const override;

 private:
  const FormationProblem& problem_;
  Member member_;
};

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_CONSTRAINED_H_
