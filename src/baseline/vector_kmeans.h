#ifndef GROUPFORM_BASELINE_VECTOR_KMEANS_H_
#define GROUPFORM_BASELINE_VECTOR_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::baseline {

/// The second family of ad-hoc formation strategies the paper's
/// introduction argues against: grouping users purely by preference
/// similarity in a vector space (Lloyd's k-means over rating vectors,
/// missing entries imputed with the user's mean). Like the Kendall-Tau
/// baseline it is agnostic to the recommendation semantics; unlike it,
/// it is cheap (O(n * m_eff * iters)) — so it serves as the "fast but
/// semantics-blind" reference point in the baseline comparison bench.
class VectorKMeansFormer : public core::FormationSolver {
 public:
  struct Options {
    int max_iterations = 100;
    /// Users' rating vectors are restricted to the `top_items` globally
    /// most-rated items (0 = all items) to bound the dimensionality.
    std::int32_t top_items = 256;
  };

  explicit VectorKMeansFormer(const core::FormationProblem& problem)
      : VectorKMeansFormer(problem, Options()) {}
  VectorKMeansFormer(const core::FormationProblem& problem, Options options)
      : problem_(problem), options_(options) {}

  /// Clusters, then recommends and scores each cluster under the problem
  /// semantics; `seed` drives the k-means++ initialisation. Result label:
  /// "VecKMeans-<semantics>-<aggregation>".
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t seed) const override;

 private:
  core::FormationProblem problem_;
  Options options_;
};

}  // namespace groupform::baseline

#endif  // GROUPFORM_BASELINE_VECTOR_KMEANS_H_
