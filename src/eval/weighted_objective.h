#ifndef GROUPFORM_EVAL_WEIGHTED_OBJECTIVE_H_
#define GROUPFORM_EVAL_WEIGHTED_OBJECTIVE_H_

#include "core/formation.h"
#include "grouprec/weighted.h"

namespace groupform::eval {

/// Mean NDCG@k over all users (§6's user-level weighting as a per-user
/// fairness view; 1.0 = everyone got their personal ideal list). Each
/// member's NDCG is grouprec::UserNdcg of their group's list. The served
/// metrics pass (eval::ComputeResponseMetrics) computes the same value in
/// one row visit; this per-user loop is its oracle.
double MeanUserNdcg(const core::FormationProblem& problem,
                    const core::FormationResult& result);

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_WEIGHTED_OBJECTIVE_H_
