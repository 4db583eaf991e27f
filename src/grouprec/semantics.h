#ifndef GROUPFORM_GROUPREC_SEMANTICS_H_
#define GROUPFORM_GROUPREC_SEMANTICS_H_

#include <string>

#include "common/status.h"

namespace groupform::grouprec {

/// Group recommendation semantics (§2.2): how a single item's group score
/// is derived from member preferences.
enum class Semantics {
  /// F_LM: sc(g, i) = min_{u in g} sc(u, i) — Definition 1.
  kLeastMisery,
  /// F_AV: sc(g, i) = sum_{u in g} sc(u, i) — Definition 2.
  kAggregateVoting,
};

/// List aggregation (§2.3): how a group's satisfaction with its recommended
/// top-k list is derived from the k item scores.
enum class Aggregation {
  /// gs = sc(g, i^1), the very top item.
  kMax,
  /// gs = sc(g, i^k), the bottom item of the list.
  kMin,
  /// gs = sum of all k item scores.
  kSum,
};

/// How to resolve sc(u, i) when user u has not rated (and the system has
/// not predicted) item i. No predictor ships: matrices come from the
/// loaders and generators as given, and the formation algorithms remain
/// well-defined on sparse data.
enum class MissingRatingPolicy {
  /// Treat as r_min, the most pessimistic in-scale value (default; keeps
  /// all scores inside the rating scale).
  kScaleMin,
  /// Treat as 0 (below scale when r_min > 0).
  kZero,
  /// Ignore the user for that item: LM takes the min over raters only, AV
  /// sums raters only. An item rated by nobody in the group scores r_min.
  kSkipUser,
};

const char* SemanticsToString(Semantics semantics);
const char* AggregationToString(Aggregation aggregation);

/// The user-facing token vocabulary shared by the CLI flags
/// (--semantics/--aggregation/--missing) and the wire protocol's
/// "problem" object (docs/PROTOCOL.md) — one mapping, every surface.
/// INVALID_ARGUMENT (naming the token and the domain) on anything else.
common::StatusOr<Semantics> SemanticsFromToken(
    const std::string& token);  // "lm" | "av"
common::StatusOr<Aggregation> AggregationFromToken(
    const std::string& token);  // "max" | "min" | "sum"
common::StatusOr<MissingRatingPolicy> MissingPolicyFromToken(
    const std::string& token);  // "rmin" | "zero" | "skip"

}  // namespace groupform::grouprec

#endif  // GROUPFORM_GROUPREC_SEMANTICS_H_
