#ifndef GROUPFORM_CORE_FORMATION_H_
#define GROUPFORM_CORE_FORMATION_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/constraint_spec.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"
#include "grouprec/group_scorer.h"
#include "grouprec/semantics.h"

namespace groupform::core {

/// An instance of the Recommendation-Aware Group Formation problem (§2.4):
/// partition the users of `matrix` into at most `max_groups` disjoint
/// groups so that the sum over groups of gs(I_k) — the group's aggregated
/// satisfaction with its recommended top-k list under `semantics` — is
/// maximised.
struct FormationProblem {
  /// Not owned; must outlive every solver run on this problem. Exactly one
  /// of `matrix` / `compact` should be set — solvers read the population
  /// through Store(), which serves whichever backend is present. `matrix`
  /// wins when both are set (the dense path stays bit-identical to the
  /// pre-compact library).
  const data::RatingMatrix* matrix = nullptr;
  /// Quantized backend alternative to `matrix` (DESIGN.md §14). Results on
  /// it equal the dense results on its ToMatrix() dequantization exactly;
  /// vs the original pre-quantization matrix they agree within the
  /// documented grid tolerance (exactly, for integer-rating instances).
  const data::CompactRatingMatrix* compact = nullptr;
  grouprec::Semantics semantics = grouprec::Semantics::kLeastMisery;
  grouprec::Aggregation aggregation = grouprec::Aggregation::kMin;
  /// Length of the recommended item list (k >= 1).
  int k = 5;
  /// Maximum number of groups, the paper's ell (>= 1).
  int max_groups = 10;
  /// How unobserved ratings are scored (see grouprec::MissingRatingPolicy).
  grouprec::MissingRatingPolicy missing =
      grouprec::MissingRatingPolicy::kScaleMin;
  /// Candidate policy for groups whose top-k cannot be read off a shared
  /// prefix (the greedy residual group, baseline clusters, local-search
  /// groups): 0 scans the full catalogue; d > 0 scans the union of each
  /// member's top-d personal items (§4.1's "sifts through the top-k items
  /// per user", with d = k being the paper's literal policy).
  int candidate_depth = 0;
  /// Deployment-shape constraints (DESIGN.md §17). Empty by default;
  /// unconstrained solvers ignore it, the constrained family
  /// (capgreedy / pairgreedy / fairgreedy) enforces it. Validate() only
  /// checks structure and id ranges — per-solver feasibility lives with
  /// the solvers, so greedy on a constraint-bearing problem still runs
  /// (it is the unconstrained bound in the constrained_ablation sweep).
  ConstraintSpec constraints;

  /// The rating backend as a read-side view. Requires one of
  /// `matrix`/`compact` to be set (Validate() enforces this for solvers).
  data::RatingStore Store() const {
    GF_CHECK(matrix != nullptr || compact != nullptr)
        << "FormationProblem has no rating backend";
    if (matrix != nullptr) return data::RatingStore(*matrix);
    return data::RatingStore(*compact);
  }

  /// OK when the instance is well-formed (a backend present and non-empty,
  /// k >= 1, max_groups >= 1).
  common::Status Validate() const;

  /// A GroupScorer configured for this problem's semantics and policy.
  grouprec::GroupScorer MakeScorer() const;

  /// Human-readable instance label, e.g. "LM/MIN k=5 ell=10 n=200 m=100".
  std::string ToString() const;
};

/// One formed group with its recommendation and satisfaction score.
struct FormedGroup {
  std::vector<UserId> members;
  /// The top-k list recommended to this group under the problem semantics.
  grouprec::GroupTopK recommendation;
  /// gs(I_k): this group's aggregated satisfaction with `recommendation`.
  double satisfaction = 0.0;
};

/// A full solution: a disjoint partition of the users into at most
/// `max_groups` groups, the per-group recommendations, and the objective.
struct FormationResult {
  std::string algorithm;
  std::vector<FormedGroup> groups;
  /// Obj = sum of group satisfactions (§2.4).
  double objective = 0.0;
  /// Improvement passes the solver actually applied (moves/swaps that
  /// changed the partition). 0 for single-shot solvers; local search
  /// reports it so warm-started re-solves can show their convergence
  /// advantage (`warm_start_passes` on the wire, DESIGN.md §13).
  int refine_passes = 0;
  /// True when an anytime solver's deadline_ms expired and this is the
  /// best-so-far snapshot rather than a converged solution (DESIGN.md
  /// §17.4). Serving reports it as `partial` instead of answering DNF.
  bool partial = false;
  /// Residual fairness-floor violations (DESIGN.md §17.3): how many users
  /// sit below constraints.min_user_sat after fairgreedy's repair pass.
  /// 0 when no floor was requested or the repair met it everywhere —
  /// the floor is soft, but a violating result always says so.
  int floor_violations = 0;

  int num_groups() const { return static_cast<int>(groups.size()); }

  /// Sizes of all groups, in formation order.
  std::vector<double> GroupSizes() const;

  /// Multi-line description (group members, lists, scores).
  std::string ToString() const;
};

/// Checks that `result` is a valid solution of `problem`: groups are
/// non-empty, disjoint, cover every user, and respect max_groups; and that
/// the reported objective equals the sum of reported satisfactions.
common::Status ValidatePartition(const FormationProblem& problem,
                                 const FormationResult& result);

/// Computes the top-k list for an arbitrary group under the problem's
/// candidate policy: full catalogue when candidate_depth == 0, otherwise
/// the union of members' top-max(depth, k) personal items.
grouprec::GroupTopK ComputeGroupList(const FormationProblem& problem,
                                     const grouprec::GroupScorer& scorer,
                                     std::span<const UserId> members);

/// One group's recommendation and aggregated satisfaction, as produced by
/// ScoreGroups.
struct GroupScore {
  grouprec::GroupTopK list;
  double satisfaction = 0.0;
};

/// Tuning knobs for ScoreGroups.
struct ScoreGroupsOptions {
  /// Within-group sharding threshold: on the full-catalogue path
  /// (candidate_depth == 0) a group's item range is split into chunks of
  /// at most this many items, each chunk's partial top-k computed as its
  /// own pool task, and the partials merged serially — so one giant
  /// residual group no longer bounds batch-scoring latency. <= 0 disables
  /// sharding (one task per group, the pre-shard behavior). The merge is
  /// exact: chunk boundaries never change the resulting lists or scores.
  std::int64_t shard_min_items = 4096;
};

/// Batch top-k scoring: ComputeGroupList + AggregateListSatisfaction for
/// every group in `groups`, in parallel on common::ThreadPool::Shared().
/// This is the rescoring hot path shared by the clustering baselines,
/// local search, and objective recomputation. Work units (whole groups,
/// or item-range shards of heavy groups, see ScoreGroupsOptions) are
/// independent and each writes its own output slot; shard partials merge
/// serially in index order under the library tie rule, so the result is
/// identical at every thread count and every chunk size (DESIGN.md
/// §10.3); empty groups score 0 with an empty list.
std::vector<GroupScore> ScoreGroups(
    const FormationProblem& problem, const grouprec::GroupScorer& scorer,
    std::span<const std::vector<UserId>> groups,
    const ScoreGroupsOptions& options = ScoreGroupsOptions());

/// The exact merge of per-shard partial top-k lists (PR 3, DESIGN.md
/// §10.3): concatenate the partials in shard index order, re-sort under
/// the library tie rule (grouprec::BetterScoredItem — score desc, item
/// asc, a strict total order because items are unique across disjoint
/// shards), truncate to k. Exact because an item in the global top-k is
/// necessarily in its own shard's top-k. Used by ScoreGroups'
/// within-group sharding.
grouprec::GroupTopK MergeShardTopK(
    std::span<const grouprec::GroupTopK> partials, int k);

/// The score of a conceptual list slot no rated item can fill: the value an
/// item unrated by every group member receives under the problem's missing
/// policy and semantics.
double MissingSlotScore(const FormationProblem& problem, int group_size);

/// Aggregates `list` into the group's satisfaction, accounting for lists
/// shorter than k: when the catalogue holds >= k items but the list is
/// shorter (every further candidate is unrated by the whole group), the
/// absent positions score MissingSlotScore(). When the catalogue itself has
/// fewer than k items the list is complete and aggregates as-is.
double AggregateListSatisfaction(const FormationProblem& problem,
                                 int group_size,
                                 const grouprec::GroupTopK& list);

/// Recomputes the objective of `result` from scratch with a fresh scorer
/// over the full catalogue, ignoring the solver's self-reported scores.
/// Used by tests to confirm solvers do not overstate their objective.
double RecomputeObjective(const FormationProblem& problem,
                          const FormationResult& result);

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_FORMATION_H_
