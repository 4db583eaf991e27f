#include "baseline/cluster_baseline.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"

namespace groupform::baseline {

using common::StatusOr;
using core::FormationResult;

std::string BaselineFormer::AlgorithmName(
    const core::FormationProblem& problem) {
  return common::StrFormat(
      "Baseline-%s-%s", grouprec::SemanticsToString(problem.semantics),
      grouprec::AggregationToString(problem.aggregation));
}

StatusOr<FormationResult> BaselineFormer::Solve(std::uint64_t seed) const {
  GF_RETURN_IF_ERROR(problem_.Validate());
  const data::RatingStore matrix = problem_.Store();
  const std::int32_t n = matrix.num_users();
  const std::int32_t ell =
      std::min<std::int32_t>(problem_.max_groups, n);

  // Pairwise rank distances, cached for small populations.
  std::vector<double> cache;
  const bool use_cache = n <= options_.cache_pairwise_up_to;
  if (use_cache) {
    cache.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                 0.0);
    for (std::int32_t u = 0; u < n; ++u) {
      for (std::int32_t v = u + 1; v < n; ++v) {
        const double d =
            KendallTauDistance(matrix, u, v, options_.kendall);
        cache[static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(v)] = d;
        cache[static_cast<std::size_t>(v) * static_cast<std::size_t>(n) +
              static_cast<std::size_t>(u)] = d;
      }
    }
  }
  const DistanceFn distance = [&](std::int32_t a, std::int32_t b) {
    if (a == b) return 0.0;
    if (use_cache) {
      return cache[static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                   static_cast<std::size_t>(b)];
    }
    return KendallTauDistance(matrix, a, b, options_.kendall);
  };

  KMedoids::Options cluster_options;
  cluster_options.num_clusters = ell;
  cluster_options.max_iterations = options_.max_iterations;
  cluster_options.medoid_candidates = options_.medoid_candidates;
  cluster_options.seed = seed;
  GF_ASSIGN_OR_RETURN(const KMedoids::Result clustering,
                      KMedoids::Cluster(n, distance, cluster_options));

  // Per-cluster recommendation and satisfaction. Clusters formed by rank
  // distance have unaligned member lists, so the group top-k must be
  // computed by the group recommender (the costly step the paper points
  // out in its scalability discussion) — batched across clusters on the
  // shared thread pool.
  std::vector<std::vector<UserId>> clusters(static_cast<std::size_t>(ell));
  for (std::int32_t u = 0; u < n; ++u) {
    const std::int32_t c = clustering.assignment[static_cast<std::size_t>(u)];
    clusters[static_cast<std::size_t>(c)].push_back(u);
  }
  FormationResult result =
      core::PackageGroups(problem_, problem_.MakeScorer(), clusters);
  result.algorithm = AlgorithmName(problem_);
  return result;
}

}  // namespace groupform::baseline
