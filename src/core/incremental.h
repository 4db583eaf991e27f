#ifndef GROUPFORM_CORE_INCREMENTAL_H_
#define GROUPFORM_CORE_INCREMENTAL_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/bucketing.h"
#include "core/formation.h"

namespace groupform::core {

/// Online variant of the greedy former for operational recommender
/// systems ("a non-intrusive addition to existing operational recommender
/// systems", §1): users enter and leave the population between formation
/// rounds, and only the affected buckets are updated.
///
///   IncrementalFormer former(problem);
///   former.AddUser(u);             // O(d_u log k) key + accumulate
///   former.RemoveUser(u);          // O(|bucket| * k) re-accumulate
///   auto result = former.Form();   // selection + residual only
///
/// Form() produces exactly what GreedyFormer::Solve would produce for the
/// currently-active population — property-tested in
/// tests/core/incremental_former_test.cc, including RemoveUser→AddUser
/// round-trips landing bitwise on the never-removed state — but repeated
/// rounds skip the per-user top-k extraction for unchanged users, the
/// dominant cost at scale. The serving layer's `groupform.delta/1` leans
/// on this equivalence for its greedy-family fast path (DESIGN.md §13).
class IncrementalFormer {
 public:
  /// The problem's matrix fixes ids and ratings; membership of the active
  /// population is what changes between rounds.
  explicit IncrementalFormer(const FormationProblem& problem);

  /// Adds a user of the matrix to the active population.
  /// Fails if out of range or already active.
  common::Status AddUser(UserId user);

  /// Adds every user of the matrix.
  void AddAllUsers();

  /// Removes an active user. Fails if not active.
  common::Status RemoveUser(UserId user);

  std::int64_t num_active() const { return num_active_; }

  /// Runs selection + residual over the current buckets. Fails when the
  /// active population is empty.
  common::StatusOr<FormationResult> Form() const;

 private:
  struct UserState {
    bool active = false;
    BucketKey key;
  };

  FormationProblem problem_;
  std::unordered_map<BucketKey, Bucket, BucketKeyHash> buckets_;
  std::vector<UserState> users_;
  std::int64_t num_active_ = 0;
};

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_INCREMENTAL_H_
