#include "baseline/vector_kmeans.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/random.h"
#include "common/strings.h"

namespace groupform::baseline {

using common::StatusOr;
using core::FormationResult;

StatusOr<FormationResult> VectorKMeansFormer::Solve(
    std::uint64_t seed) const {
  GF_RETURN_IF_ERROR(problem_.Validate());
  const data::RatingStore matrix = problem_.Store();
  const std::int32_t n = matrix.num_users();
  const std::int32_t ell = std::min<std::int32_t>(problem_.max_groups, n);
  common::Rng rng(seed);

  // Feature space: the most-rated items (ties by id).
  std::vector<std::int64_t> item_counts(
      static_cast<std::size_t>(matrix.num_items()), 0);
  for (UserId u = 0; u < n; ++u) {
    matrix.VisitRow(u, [&item_counts](ItemId item, Rating) {
      ++item_counts[static_cast<std::size_t>(item)];
    });
  }
  std::vector<ItemId> dims(static_cast<std::size_t>(matrix.num_items()));
  std::iota(dims.begin(), dims.end(), 0);
  if (options_.top_items > 0 &&
      static_cast<std::int32_t>(dims.size()) > options_.top_items) {
    std::partial_sort(
        dims.begin(), dims.begin() + options_.top_items, dims.end(),
        [&](ItemId a, ItemId b) {
          const auto ca = item_counts[static_cast<std::size_t>(a)];
          const auto cb = item_counts[static_cast<std::size_t>(b)];
          if (ca != cb) return ca > cb;
          return a < b;
        });
    dims.resize(static_cast<std::size_t>(options_.top_items));
  }
  const std::size_t d = dims.size();

  // Dense user vectors, missing entries imputed with the user's mean.
  std::vector<double> features(static_cast<std::size_t>(n) * d);
  std::vector<data::RatingEntry> row_scratch;
  for (UserId u = 0; u < n; ++u) {
    const auto row = matrix.Row(u, row_scratch);
    double mean = 0.0;
    for (const auto& e : row) mean += e.rating;
    mean = row.empty() ? 0.5 * (matrix.scale().min + matrix.scale().max)
                       : mean / static_cast<double>(row.size());
    double* vec = &features[static_cast<std::size_t>(u) * d];
    for (std::size_t j = 0; j < d; ++j) {
      vec[j] = matrix.GetRatingOr(u, dims[j], mean);
    }
  }
  const auto vec_of = [&](UserId u) {
    return &features[static_cast<std::size_t>(u) * d];
  };
  const auto sq_dist = [&](const double* a, const double* b) {
    double s = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = a[j] - b[j];
      s += diff * diff;
    }
    return s;
  };

  // k-means++ init, then Lloyd iterations.
  std::vector<double> centroids(static_cast<std::size_t>(ell) * d);
  std::vector<double> nearest(static_cast<std::size_t>(n),
                              std::numeric_limits<double>::infinity());
  {
    const UserId first = static_cast<UserId>(
        rng.NextUint64(static_cast<std::uint64_t>(n)));
    std::copy_n(vec_of(first), d, centroids.begin());
    for (std::int32_t c = 1; c < ell; ++c) {
      const double* last = &centroids[static_cast<std::size_t>(c - 1) * d];
      double total = 0.0;
      for (UserId u = 0; u < n; ++u) {
        nearest[static_cast<std::size_t>(u)] =
            std::min(nearest[static_cast<std::size_t>(u)],
                     sq_dist(vec_of(u), last));
        total += nearest[static_cast<std::size_t>(u)];
      }
      UserId chosen = static_cast<UserId>(
          rng.NextUint64(static_cast<std::uint64_t>(n)));
      if (total > 0.0) {
        double pick = rng.NextDouble() * total;
        for (UserId u = 0; u < n; ++u) {
          pick -= nearest[static_cast<std::size_t>(u)];
          if (pick <= 0.0) {
            chosen = u;
            break;
          }
        }
      }
      std::copy_n(vec_of(chosen), d,
                  centroids.begin() + static_cast<std::ptrdiff_t>(
                                          static_cast<std::size_t>(c) * d));
    }
  }

  std::vector<std::int32_t> assignment(static_cast<std::size_t>(n), 0);
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    bool changed = false;
    for (UserId u = 0; u < n; ++u) {
      double best = std::numeric_limits<double>::infinity();
      std::int32_t best_c = 0;
      for (std::int32_t c = 0; c < ell; ++c) {
        const double dist =
            sq_dist(vec_of(u), &centroids[static_cast<std::size_t>(c) * d]);
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      if (assignment[static_cast<std::size_t>(u)] != best_c) {
        assignment[static_cast<std::size_t>(u)] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Recompute centroids; empty clusters keep their previous centre.
    std::vector<double> sums(static_cast<std::size_t>(ell) * d, 0.0);
    std::vector<std::int64_t> counts(static_cast<std::size_t>(ell), 0);
    for (UserId u = 0; u < n; ++u) {
      const std::int32_t c = assignment[static_cast<std::size_t>(u)];
      const double* vec = vec_of(u);
      double* sum = &sums[static_cast<std::size_t>(c) * d];
      for (std::size_t j = 0; j < d; ++j) sum[j] += vec[j];
      ++counts[static_cast<std::size_t>(c)];
    }
    for (std::int32_t c = 0; c < ell; ++c) {
      if (counts[static_cast<std::size_t>(c)] == 0) continue;
      const double inv =
          1.0 / static_cast<double>(counts[static_cast<std::size_t>(c)]);
      double* centroid = &centroids[static_cast<std::size_t>(c) * d];
      const double* sum = &sums[static_cast<std::size_t>(c) * d];
      for (std::size_t j = 0; j < d; ++j) centroid[j] = sum[j] * inv;
    }
  }

  // Score the clusters under the problem semantics, batched across
  // clusters on the shared thread pool.
  std::vector<std::vector<UserId>> clusters(static_cast<std::size_t>(ell));
  for (UserId u = 0; u < n; ++u) {
    clusters[static_cast<std::size_t>(
                 assignment[static_cast<std::size_t>(u)])]
        .push_back(u);
  }
  FormationResult result =
      core::PackageGroups(problem_, problem_.MakeScorer(), clusters);
  result.algorithm = common::StrFormat(
      "VecKMeans-%s-%s", grouprec::SemanticsToString(problem_.semantics),
      grouprec::AggregationToString(problem_.aggregation));
  return result;
}

}  // namespace groupform::baseline
