#include "core/bucketing.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace groupform::core {

using grouprec::Aggregation;
using grouprec::Semantics;

std::size_t BucketKeyHash::operator()(const BucketKey& key) const {
  std::size_t seed = 0x8f1bbcdcbfa53e0bULL;
  for (ItemId item : key.items) common::HashCombineValue(seed, item);
  for (Rating r : key.ratings) {
    common::HashCombine(seed, std::bit_cast<std::uint64_t>(r));
  }
  return seed;
}

BucketKey MakeBucketKey(const FormationProblem& problem,
                        std::span<const data::RatingEntry> topk) {
  BucketKey key;
  const bool lm = problem.semantics == Semantics::kLeastMisery;
  const std::size_t len =
      problem.aggregation == Aggregation::kMax
          ? std::min<std::size_t>(1, topk.size())
          : topk.size();
  key.items.reserve(len);
  for (std::size_t j = 0; j < len; ++j) key.items.push_back(topk[j].item);
  if (lm) {
    switch (problem.aggregation) {
      case Aggregation::kMax:
        // Shared top item and its rating.
        if (!topk.empty()) key.ratings.push_back(topk[0].rating);
        break;
      case Aggregation::kMin:
        // Shared sequence plus the bottom rating (Algorithm 1, line 3).
        if (!topk.empty()) key.ratings.push_back(topk.back().rating);
        break;
      case Aggregation::kSum:
        // Shared sequence plus every rating (§4.2).
        for (std::size_t j = 0; j < len; ++j) {
          key.ratings.push_back(topk[j].rating);
        }
        break;
    }
  }
  return key;
}

void AccumulateMember(const FormationProblem& problem,
                      std::span<const data::RatingEntry> topk,
                      Bucket& bucket) {
  const bool lm = problem.semantics == Semantics::kLeastMisery;
  if (bucket.seq_items.empty() && bucket.members.empty()) {
    // First member: the stored sequence is the member's key-relevant
    // prefix (one position for Max keys, the full top-k otherwise).
    const std::size_t len =
        problem.aggregation == Aggregation::kMax
            ? std::min<std::size_t>(1, topk.size())
            : topk.size();
    bucket.seq_items.reserve(len);
    bucket.seq_scores.assign(len, 0.0);
    for (std::size_t j = 0; j < len; ++j) {
      bucket.seq_items.push_back(topk[j].item);
      bucket.seq_scores[j] = topk[j].rating;
    }
    return;
  }
  const std::size_t len = bucket.seq_scores.size();
  GF_DCHECK(topk.size() >= len);
  for (std::size_t j = 0; j < len; ++j) {
    if (lm) {
      bucket.seq_scores[j] = std::min(bucket.seq_scores[j], topk[j].rating);
    } else {
      bucket.seq_scores[j] += topk[j].rating;
    }
  }
}

double BucketScore(const FormationProblem& problem, const Bucket& bucket) {
  const int k = problem.k;
  const int len = static_cast<int>(bucket.seq_scores.size());
  const int catalogue = problem.Store().num_items();
  const bool exhausted = catalogue <= len;
  const double miss =
      MissingSlotScore(problem, static_cast<int>(bucket.members.size()));
  switch (problem.aggregation) {
    case Aggregation::kMax:
      return len > 0 ? bucket.seq_scores.front() : miss;
    case Aggregation::kMin:
      if (len >= std::min(k, catalogue) || exhausted) {
        return bucket.seq_scores.empty() ? miss : bucket.seq_scores.back();
      }
      return miss;
    case Aggregation::kSum: {
      double sum = 0.0;
      for (double s : bucket.seq_scores) sum += s;
      const int missing_slots = exhausted ? 0 : std::max(0, k - len);
      return sum + static_cast<double>(missing_slots) * miss;
    }
  }
  return miss;
}

bool BucketBetter(const std::pair<double, const Bucket*>& a,
                  const std::pair<double, const Bucket*>& b) {
  if (a.first != b.first) return a.first > b.first;
  const auto& sa = a.second->seq_scores;
  const auto& sb = b.second->seq_scores;
  const std::size_t common_len = std::min(sa.size(), sb.size());
  for (std::size_t j = 0; j < common_len; ++j) {
    if (sa[j] != sb[j]) return sa[j] > sb[j];
  }
  if (sa.size() != sb.size()) return sa.size() > sb.size();
  if (a.second->members.size() != b.second->members.size()) {
    return a.second->members.size() > b.second->members.size();
  }
  return a.second->members.front() < b.second->members.front();
}

grouprec::GroupTopK BucketRecommendation(const FormationProblem& problem,
                                         const grouprec::GroupScorer& scorer,
                                         const Bucket& bucket) {
  if (problem.aggregation == Aggregation::kMax) {
    return scorer.TopKUnionCandidates(
        bucket.members, problem.k,
        std::max(problem.k, problem.candidate_depth));
  }
  grouprec::GroupTopK list;
  list.items.reserve(bucket.seq_items.size());
  for (std::size_t j = 0; j < bucket.seq_items.size(); ++j) {
    list.items.push_back({bucket.seq_items[j], bucket.seq_scores[j]});
  }
  return list;
}


FormationResult SelectAndAssemble(
    const FormationProblem& problem, const grouprec::GroupScorer& scorer,
    std::vector<std::pair<double, const Bucket*>> scored) {
  const bool lm = problem.semantics == Semantics::kLeastMisery;
  FormationResult result;
  const int ell = problem.max_groups;
  std::vector<UserId> residual_members;

  if (lm) {
    // Step 2 (LM) — slot allocation with bucket splitting. Every subset of
    // an LM bucket keeps the bucket's satisfaction score (the key pins all
    // score-relevant ratings), so each bucket of size s can fill up to s
    // group slots at full score. The paper's Theorem 2/3 domination
    // argument requires exactly this: picking the best ell-1 slots from
    // the multiset {bucket score x bucket size}. Whole-bucket selection
    // alone can lose unboundedly (one giant bucket, ell slots). Ties are
    // allocated round-robin across equal-score buckets, which reproduces
    // the paper's whole-bucket traces whenever splitting is unnecessary.
    std::sort(scored.begin(), scored.end(), BucketBetter);
    std::vector<int> allocation(scored.size(), 0);
    int slots = ell - 1;
    std::size_t run_start = 0;
    while (slots > 0 && run_start < scored.size()) {
      std::size_t run_end = run_start;
      while (run_end < scored.size() &&
             scored[run_end].first == scored[run_start].first) {
        ++run_end;
      }
      bool assigned_any = true;
      while (slots > 0 && assigned_any) {
        assigned_any = false;
        for (std::size_t i = run_start; i < run_end && slots > 0; ++i) {
          if (allocation[i] <
              static_cast<int>(scored[i].second->members.size())) {
            ++allocation[i];
            --slots;
            assigned_any = true;
          }
        }
      }
      run_start = run_end;
    }

    // When every bucket won at least one slot there are no leftover users,
    // so no residual group will form — the ell-th slot is free and goes to
    // the best bucket that can still split.
    const bool have_leftovers =
        std::any_of(allocation.begin(), allocation.end(),
                    [](int a) { return a == 0; });
    if (!have_leftovers) {
      for (std::size_t i = 0; i < scored.size(); ++i) {
        if (allocation[i] <
            static_cast<int>(scored[i].second->members.size())) {
          ++allocation[i];
          break;  // scored is comparator-sorted: first eligible is best
        }
      }
    }

    for (std::size_t i = 0; i < scored.size(); ++i) {
      const auto& [score, bucket] = scored[i];
      const int slots_here = allocation[i];
      if (slots_here == 0) {
        residual_members.insert(residual_members.end(),
                                bucket->members.begin(),
                                bucket->members.end());
        continue;
      }
      // Split the bucket across its slots: singletons first, the final
      // slot absorbs the remainder. Every part scores `score`.
      const auto& members = bucket->members;  // ascending user ids
      for (int s = 0; s < slots_here; ++s) {
        FormedGroup group;
        if (s + 1 < slots_here) {
          group.members = {members[static_cast<std::size_t>(s)]};
        } else {
          group.members.assign(members.begin() + s, members.end());
        }
        if (slots_here == 1) {
          group.recommendation =
              BucketRecommendation(problem, scorer, *bucket);
        } else {
          // Subsets can score intermediate positions higher than the whole
          // bucket's accumulated minima; recompute for exact display.
          group.recommendation = problem.aggregation == Aggregation::kMax
                                     ? scorer.TopKUnionCandidates(
                                           group.members, problem.k,
                                           std::max(problem.k,
                                                    problem.candidate_depth))
                                     : scorer.TopK(group.members, problem.k,
                                                   bucket->seq_items);
        }
        group.satisfaction = score;
        result.objective += score;
        result.groups.push_back(std::move(group));
      }
    }
  } else {
    // Step 2 (AV) — whole-bucket selection. Splitting an AV bucket splits
    // its summed score across the parts, so extra slots cannot raise the
    // objective; the paper's selection of the best ell-1 whole buckets is
    // kept as-is. When the population forms at most ell buckets, every
    // bucket becomes its own (fully satisfied) group.
    const std::size_t selected = std::min<std::size_t>(
        scored.size() <= static_cast<std::size_t>(ell)
            ? scored.size()
            : static_cast<std::size_t>(ell - 1),
        scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(selected),
                      scored.end(), BucketBetter);
    for (std::size_t i = 0; i < selected; ++i) {
      const auto& [score, bucket] = scored[i];
      FormedGroup group;
      group.members = bucket->members;
      group.recommendation = BucketRecommendation(problem, scorer, *bucket);
      group.satisfaction = score;
      result.objective += score;
      result.groups.push_back(std::move(group));
    }
    for (std::size_t i = selected; i < scored.size(); ++i) {
      const auto& members = scored[i].second->members;
      residual_members.insert(residual_members.end(), members.begin(),
                              members.end());
    }
  }

  // Step 3 — the ell-th group: everyone left, scored by the group
  // recommender over the problem's candidate policy.
  if (!residual_members.empty()) {
    FormedGroup residual;
    residual.members = std::move(residual_members);
    std::sort(residual.members.begin(), residual.members.end());
    residual.recommendation =
        ComputeGroupList(problem, scorer, residual.members);
    residual.satisfaction = AggregateListSatisfaction(
        problem, static_cast<int>(residual.members.size()),
        residual.recommendation);
    result.objective += residual.satisfaction;
    result.groups.push_back(std::move(residual));
  }
  return result;
}

}  // namespace groupform::core
