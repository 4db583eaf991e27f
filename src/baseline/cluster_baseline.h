#ifndef GROUPFORM_BASELINE_CLUSTER_BASELINE_H_
#define GROUPFORM_BASELINE_CLUSTER_BASELINE_H_

#include <cstdint>
#include <string>

#include "baseline/kendall_tau.h"
#include "baseline/kmedoids.h"
#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::baseline {

/// The paper's comparison baseline (§7, adapted from Ntoutsi et al. [22]):
/// measure the Kendall-Tau distance between every user pair's item
/// rankings, cluster the users into ell groups with the paper's
/// "K-means" (k-medoids here — see KMedoids), and only then compute each
/// cluster's top-k list and satisfaction under the LM or AV semantics.
/// The clustering step is agnostic to the recommendation semantics, which
/// is exactly the property the GRD algorithms are shown to beat.
class BaselineFormer : public core::FormationSolver {
 public:
  struct Options {
    KendallTauOptions kendall;
    /// Passed through to KMedoids (num_clusters comes from the problem).
    int max_iterations = 100;
    int medoid_candidates = 64;
    /// Cache all O(n^2 / 2) pairwise distances up front when n is at most
    /// this bound; beyond it distances are computed on demand (k-medoids
    /// touches only point-to-medoid pairs).
    std::int32_t cache_pairwise_up_to = 2048;
  };

  explicit BaselineFormer(const core::FormationProblem& problem)
      : BaselineFormer(problem, Options()) {}
  BaselineFormer(const core::FormationProblem& problem, Options options)
      : problem_(problem), options_(options) {}

  /// Clusters, recommends, and scores; `seed` drives the k-medoids
  /// initialisation. The result's algorithm label is
  /// "Baseline-<semantics>-<aggregation>".
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t seed) const override;

  static std::string AlgorithmName(const core::FormationProblem& problem);

 private:
  core::FormationProblem problem_;
  Options options_;
};

}  // namespace groupform::baseline

#endif  // GROUPFORM_BASELINE_CLUSTER_BASELINE_H_
