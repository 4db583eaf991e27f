#include "userstudy/amt_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baseline/cluster_baseline.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/greedy.h"
#include "recsys/preference_lists.h"

namespace groupform::userstudy {
namespace {

using core::FormationProblem;
using core::FormationResult;

/// Mean and standard error of a sample.
std::pair<double, double> MeanStderr(const std::vector<double>& xs) {
  if (xs.empty()) return {0.0, 0.0};
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  if (xs.size() < 2) return {mean, 0.0};
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  return {mean, std::sqrt(var / static_cast<double>(xs.size()))};
}

/// A rater's latent satisfaction with a grouping: the mean own-rating of
/// the list recommended to the rater's group, averaged over groups were the
/// rater every member — the HIT shows all groups, so raters evaluate the
/// grouping as a whole by how well each group serves its members.
double LatentSatisfaction(const data::RatingMatrix& sample_matrix,
                          const FormationResult& result) {
  // Mean over groups of mean member own-rating of the group's list.
  double total = 0.0;
  int counted = 0;
  for (const auto& g : result.groups) {
    if (g.members.empty() || g.recommendation.empty()) continue;
    double group_total = 0.0;
    for (UserId u : g.members) {
      double sum = 0.0;
      for (const auto& si : g.recommendation.items) {
        sum += sample_matrix.GetRatingOr(u, si.item,
                                         sample_matrix.scale().min);
      }
      group_total += sum / static_cast<double>(g.recommendation.size());
    }
    total += group_total / static_cast<double>(g.members.size());
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted)
                     : sample_matrix.scale().min;
}

}  // namespace

const char* AmtSimulator::SampleKindToString(SampleKind kind) {
  switch (kind) {
    case SampleKind::kSimilar:
      return "Similar";
    case SampleKind::kDissimilar:
      return "Dissimilar";
    case SampleKind::kRandom:
      return "Random";
  }
  return "?";
}

data::RatingMatrix AmtSimulator::GenerateWorkerPool() const {
  common::Rng rng(options_.seed);
  const data::RatingScale scale{1.0, 5.0};
  // Archetype preference profiles over the POIs.
  std::vector<std::vector<double>> archetypes;
  for (int a = 0; a < options_.num_archetypes; ++a) {
    std::vector<double> profile(
        static_cast<std::size_t>(options_.num_pois));
    for (auto& p : profile) {
      p = static_cast<double>(rng.UniformInt(1, 5));
    }
    archetypes.push_back(std::move(profile));
  }
  data::RatingMatrixBuilder builder(options_.num_workers, options_.num_pois,
                                    scale);
  for (std::int32_t w = 0; w < options_.num_workers; ++w) {
    const auto& base = archetypes[static_cast<std::size_t>(rng.NextUint64(
        static_cast<std::uint64_t>(archetypes.size())))];
    for (std::int32_t p = 0; p < options_.num_pois; ++p) {
      double r = base[static_cast<std::size_t>(p)] + rng.Gaussian(0.0, 0.8);
      r = std::clamp(std::round(r), scale.min, scale.max);
      GF_CHECK(builder.AddRating(w, p, r).ok());
    }
  }
  return std::move(builder).Build();
}

double AmtSimulator::PairSimilarity(const data::RatingMatrix& pool, UserId u,
                                    UserId v) {
  const auto list_u = recsys::FullPreferenceList(pool, u);
  const auto list_v = recsys::FullPreferenceList(pool, v);
  const std::size_t positions = std::min(list_u.size(), list_v.size());
  if (positions == 0) return 0.0;
  const double r_max = pool.scale().max;
  double sim = 0.0;
  for (std::size_t j = 0; j < positions; ++j) {
    if (list_u[j].item != list_v[j].item) continue;  // sim(u,u',j) = 0
    sim += 1.0 - std::abs(list_u[j].rating - list_v[j].rating) / r_max;
  }
  return sim / static_cast<double>(positions);
}

std::vector<UserId> AmtSimulator::SelectSample(
    const data::RatingMatrix& pool, SampleKind kind) const {
  common::Rng rng(options_.seed ^ 0xabcdef1234567890ULL);
  const std::int32_t n = pool.num_users();
  const std::int32_t size = std::min(options_.sample_size, n);
  if (kind == SampleKind::kRandom) {
    std::vector<UserId> sample;
    for (auto idx : rng.SampleWithoutReplacement(n, size)) {
      sample.push_back(static_cast<UserId>(idx));
    }
    std::sort(sample.begin(), sample.end());
    return sample;
  }

  // Greedy construction: start from the best pair and repeatedly add the
  // worker that maximises (kSimilar) or minimises (kDissimilar) the mean
  // similarity to the current sample.
  const bool maximize = kind == SampleKind::kSimilar;
  std::vector<std::vector<double>> sim(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      const double s = PairSimilarity(pool, a, b);
      sim[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = s;
      sim[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = s;
    }
  }
  UserId seed_a = 0;
  UserId seed_b = 1;
  double best_pair = maximize ? -1.0 : std::numeric_limits<double>::max();
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      const double s =
          sim[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (maximize ? s > best_pair : s < best_pair) {
        best_pair = s;
        seed_a = a;
        seed_b = b;
      }
    }
  }
  std::vector<UserId> sample = {seed_a, seed_b};
  std::vector<bool> chosen(static_cast<std::size_t>(n), false);
  chosen[static_cast<std::size_t>(seed_a)] = true;
  chosen[static_cast<std::size_t>(seed_b)] = true;
  while (static_cast<std::int32_t>(sample.size()) < size) {
    UserId best_user = kInvalidUser;
    double best_score =
        maximize ? -1.0 : std::numeric_limits<double>::max();
    for (std::int32_t c = 0; c < n; ++c) {
      if (chosen[static_cast<std::size_t>(c)]) continue;
      double mean = 0.0;
      for (UserId s : sample) {
        mean += sim[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
      }
      mean /= static_cast<double>(sample.size());
      if (maximize ? mean > best_score : mean < best_score) {
        best_score = mean;
        best_user = c;
      }
    }
    GF_CHECK_NE(best_user, kInvalidUser);
    chosen[static_cast<std::size_t>(best_user)] = true;
    sample.push_back(best_user);
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

common::StatusOr<AmtSimulator::StudyResult> AmtSimulator::Run() const {
  const data::RatingMatrix pool = GenerateWorkerPool();
  common::Rng response_rng(options_.seed + 7);
  StudyResult study;

  const SampleKind kinds[] = {SampleKind::kSimilar, SampleKind::kDissimilar,
                              SampleKind::kRandom};
  const grouprec::Aggregation aggs[] = {grouprec::Aggregation::kMin,
                                        grouprec::Aggregation::kSum};
  double prefer_min_sum = 0.0;
  double prefer_sum_sum = 0.0;
  for (const auto agg : aggs) {
    for (const auto kind : kinds) {
      const std::vector<UserId> sample = SelectSample(pool, kind);
      GF_ASSIGN_OR_RETURN(const data::RatingMatrix sample_matrix,
                          pool.SubsetUsers(sample));
      FormationProblem problem;
      problem.matrix = &sample_matrix;
      problem.semantics = grouprec::Semantics::kLeastMisery;
      problem.aggregation = agg;
      problem.k = options_.k;
      problem.max_groups = options_.num_groups;
      GF_ASSIGN_OR_RETURN(const FormationResult grd,
                          core::RunGreedy(problem));
      GF_ASSIGN_OR_RETURN(
          const FormationResult base,
          baseline::BaselineFormer(problem).Solve(options_.seed + 13));

      const double latent_grd = LatentSatisfaction(sample_matrix, grd);
      const double latent_base = LatentSatisfaction(sample_matrix, base);

      // Each HIT rater answers the two satisfaction questions and the
      // preference question, with independent response noise.
      std::vector<double> ratings_grd;
      std::vector<double> ratings_base;
      int prefer_grd = 0;
      for (int rater = 0; rater < options_.raters_per_hit; ++rater) {
        const double noisy_grd = std::clamp(
            latent_grd + response_rng.Gaussian(0.0, options_.response_noise),
            1.0, 5.0);
        const double noisy_base = std::clamp(
            latent_base +
                response_rng.Gaussian(0.0, options_.response_noise),
            1.0, 5.0);
        ratings_grd.push_back(noisy_grd);
        ratings_base.push_back(noisy_base);
        if (noisy_grd > noisy_base) {
          ++prefer_grd;
        } else if (noisy_grd == noisy_base && response_rng.Bernoulli(0.5)) {
          ++prefer_grd;
        }
      }

      HitResult hit;
      hit.sample = kind;
      hit.aggregation = agg;
      std::tie(hit.avg_satisfaction_grd, hit.stderr_grd) =
          MeanStderr(ratings_grd);
      std::tie(hit.avg_satisfaction_baseline, hit.stderr_baseline) =
          MeanStderr(ratings_base);
      hit.prefer_grd_fraction =
          static_cast<double>(prefer_grd) /
          static_cast<double>(options_.raters_per_hit);
      if (agg == grouprec::Aggregation::kMin) {
        prefer_min_sum += hit.prefer_grd_fraction;
      } else {
        prefer_sum_sum += hit.prefer_grd_fraction;
      }
      study.hits.push_back(hit);
    }
  }
  study.prefer_grd_min_pct = 100.0 * prefer_min_sum / 3.0;
  study.prefer_grd_sum_pct = 100.0 * prefer_sum_sum / 3.0;
  return study;
}

}  // namespace groupform::userstudy
