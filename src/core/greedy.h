#ifndef GROUPFORM_CORE_GREEDY_H_
#define GROUPFORM_CORE_GREEDY_H_

#include <string>

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"

namespace groupform::core {

/// The paper's greedy group-formation family (GRD, §4 and §5), covering all
/// six semantics x aggregation combinations:
///
///   GRD-LM-MIN  — Algorithm 1: bucket users on (top-k item sequence,
///                 bottom-item rating); absolute error <= r_max (Thm. 2).
///   GRD-LM-SUM  — bucket on (top-k sequence, all k ratings); absolute
///                 error <= k * r_max (Thm. 3).
///   GRD-LM-MAX  — bucket on (top item, its rating): under Max aggregation
///                 only the list head determines satisfaction, and a shared
///                 top item with a shared rating *is* the group's LM-best
///                 item, so the full sequence is unnecessary.
///   GRD-AV-MIN / GRD-AV-SUM — bucket on the top-k item sequence alone
///                 (§5: ratings are summed, so score matching is not
///                 useful); heuristics without guarantees.
///   GRD-AV-MAX  — bucket on the top item alone.
///
/// The algorithm: (1) build the buckets in one hash pass, accumulating each
/// bucket's satisfaction score; (2) pick the best ell-1 buckets as groups
/// (score desc, deterministic tie-breaks below); (3) merge every remaining
/// user into the ell-th residual group, whose top-k list is computed by the
/// group recommender (full catalogue or truncated candidates, per
/// FormationProblem::candidate_depth). When the population splits into at
/// most ell buckets, every bucket becomes its own group and every user is
/// fully satisfied.
///
/// Tie-breaks between equal-score buckets (golden-tested against the
/// paper's Examples 1, 2 and 5): lexicographically greater per-position
/// score vector first, then larger bucket, then smaller first member id.
///
/// Complexity: O(n k) bucket construction after top-k extraction
/// (O(sum_u d_u log k)), plus O(B log ell) selection over B <= n buckets
/// and the residual group's recommendation — matching the paper's
/// O(nk + ell log n) bound.
class GreedyFormer : public FormationSolver {
 public:
  /// The problem's matrix must outlive the former (§2.4 instance).
  explicit GreedyFormer(const FormationProblem& problem)
      : problem_(problem) {}

  /// Runs the greedy algorithm selected by the problem's semantics and
  /// aggregation: Algorithm 1 for LM (§4.1–§4.2, with the bucket-splitting
  /// selection of DESIGN.md §4.1b that makes Theorems 2/3 hold), the §5
  /// whole-bucket variant for AV. Greedy is deterministic: the seed is
  /// ignored. Fails only on invalid problems.
  common::StatusOr<FormationResult> Solve(std::uint64_t) const override;

  /// The paper's algorithm label for this semantics x aggregation pair
  /// (§7 "Algorithms Compared"): "GRD-LM-MIN", "GRD-AV-SUM", ...
  static std::string AlgorithmName(const FormationProblem& problem);

 private:
  FormationProblem problem_;
};

/// The seedless GRD entry point (§4): GreedyFormer(problem).Solve.
common::StatusOr<FormationResult> RunGreedy(const FormationProblem& problem);

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_GREEDY_H_
