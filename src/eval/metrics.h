#ifndef GROUPFORM_EVAL_METRICS_H_
#define GROUPFORM_EVAL_METRICS_H_

#include "core/formation.h"
#include "data/dataset_stats.h"

namespace groupform::eval {

/// Average group satisfaction over the full recommended top-k lists
/// (§7.1.2): sum_x sum_j sc(g_x, i^j) / ell. Unlike the objective, this
/// always sums the per-item group scores of every recommended item,
/// whatever aggregation the formation optimised — the paper uses it to show
/// Min-optimised groupings still satisfy users across the whole list.
double AvgGroupSatisfaction(const core::FormationProblem& problem,
                            const core::FormationResult& result);

/// Five-point summary of the formed group sizes (Table 4).
data::FivePointSummary GroupSizeSummary(const core::FormationResult& result);

/// Mean over users of the user's own mean rating of the items recommended
/// to their group (missing ratings resolved by the problem policy). A
/// direct per-user happiness measure on the rating scale, used by the user
/// study and the examples.
double MeanPerUserSatisfaction(const core::FormationProblem& problem,
                               const core::FormationResult& result);

/// Fraction of users whose group's recommended list equals their personal
/// top-k list as a set (the paper's "fully satisfied" users: everyone in
/// the first ell-1 greedy groups under Min/Sum keys).
double FullySatisfiedFraction(const core::FormationProblem& problem,
                              const core::FormationResult& result);

/// The four §7.1.2 metrics every OK serve response carries.
struct ResponseMetrics {
  double avg_group_satisfaction = 0.0;
  double mean_user_rating = 0.0;
  double mean_user_ndcg = 0.0;
  double fully_satisfied = 0.0;
};

/// All four response metrics in one pass, bit-identical to
/// AvgGroupSatisfaction, MeanPerUserSatisfaction, MeanUserNdcg
/// (eval/weighted_objective.h) and FullySatisfiedFraction, which stay as
/// its test oracle. Each member's row is visited once. A bounded top-k in
/// the library tie order gives the personal top-k set and the ideal DCG,
/// and an item-to-slot table over the group's list gives the member's
/// ratings of the recommended items. Group lists are still re-scored with
/// core::ComputeGroupList, because a solver's returned list need not score
/// like the recomputed one (greedy under Min aggregation, exact solvers
/// with a candidate depth). The top-k insertion costs O(min(k, d)) per
/// entry it admits, so a member row of d ratings costs O(d) when the row
/// is in random rating order and O(d · min(k, d)) at worst.
ResponseMetrics ComputeResponseMetrics(const core::FormationProblem& problem,
                                       const core::FormationResult& result);

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_METRICS_H_
