#include "baseline/register_solvers.h"

#include <memory>

#include "baseline/cluster_baseline.h"
#include "baseline/vector_kmeans.h"
#include "core/solver_registry.h"

namespace groupform::baseline {

using core::FormationProblem;
using core::FormationSolver;
using core::SolverOptions;
using core::SolverRegistry;
using SolverOr = common::StatusOr<std::unique_ptr<FormationSolver>>;

void RegisterBaselineSolvers() {
  SolverRegistry& registry = SolverRegistry::Global();

  (void)registry.Register(
      "baseline",
      "Baseline — Kendall-Tau distances + k-medoids clustering (§7)",
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        // Every knob is strict; 0 disables the one it names (no medoid
        // swap pass, no medoid sampling, no distance cache, no truncation).
        BaselineFormer::Options opt;
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("max_iterations", 0, &opt.max_iterations));
        GF_RETURN_IF_ERROR(options.ReadCheckedInt("medoid_candidates", 0,
                                                  &opt.medoid_candidates));
        GF_RETURN_IF_ERROR(options.ReadCheckedInt(
            "cache_pairwise_up_to", 0, &opt.cache_pairwise_up_to));
        GF_RETURN_IF_ERROR(options.ReadCheckedInt("kendall_truncate", 0,
                                                  &opt.kendall.truncate));
        return SolverOr(std::make_unique<BaselineFormer>(problem, opt));
      });

  (void)registry.Register(
      "veckmeans", "VecKMeans — preference-vector k-means ad-hoc formation",
      [](const FormationProblem& problem,
         const SolverOptions& options) -> SolverOr {
        VectorKMeansFormer::Options opt;
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("max_iterations", 0, &opt.max_iterations));
        GF_RETURN_IF_ERROR(
            options.ReadCheckedInt("top_items", 0, &opt.top_items));
        return SolverOr(
            std::make_unique<VectorKMeansFormer>(problem, opt));
      });
}

}  // namespace groupform::baseline
