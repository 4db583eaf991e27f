#include "core/greedy.h"

#include "core/bucketing.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "recsys/preference_lists.h"

namespace groupform::core {

using grouprec::Aggregation;
using grouprec::Semantics;

std::string GreedyFormer::AlgorithmName(const FormationProblem& problem) {
  return common::StrFormat("GRD-%s-%s",
                           grouprec::SemanticsToString(problem.semantics),
                           grouprec::AggregationToString(
                               problem.aggregation));
}

common::StatusOr<FormationResult> GreedyFormer::Solve(std::uint64_t) const {
  GF_RETURN_IF_ERROR(problem_.Validate());
  const data::RatingStore matrix = problem_.Store();
  const int n = matrix.num_users();

  // Step 1 — intermediate groups: one hash pass over per-user top-k lists.
  // Each bucket accumulates its per-position group scores incrementally
  // (min for LM, sum for AV), so scoring stays O(k) per user.
  std::unordered_map<BucketKey, Bucket, BucketKeyHash> buckets;
  buckets.reserve(static_cast<std::size_t>(n) * 2);
  for (UserId u = 0; u < n; ++u) {
    const auto topk = recsys::TopKList(matrix, u, problem_.k);
    BucketKey key = MakeBucketKey(problem_, topk);
    Bucket& bucket = buckets[std::move(key)];
    AccumulateMember(problem_, topk, bucket);
    bucket.members.push_back(u);
  }

  const grouprec::GroupScorer scorer = problem_.MakeScorer();

  // Score every bucket once; steps 2 and 3 (selection, LM bucket
  // splitting, residual assembly) are shared with IncrementalFormer.
  std::vector<std::pair<double, const Bucket*>> scored;
  scored.reserve(buckets.size());
  for (const auto& [key, bucket] : buckets) {
    scored.emplace_back(BucketScore(problem_, bucket), &bucket);
  }
  FormationResult result =
      SelectAndAssemble(problem_, scorer, std::move(scored));
  result.algorithm = AlgorithmName(problem_);
  return result;
}

common::StatusOr<FormationResult> RunGreedy(const FormationProblem& problem) {
  return GreedyFormer(problem).Solve(FormationSolver::kDefaultSeed);
}

}  // namespace groupform::core
