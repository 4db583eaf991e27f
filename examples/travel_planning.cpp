// Travel planning (the paper's §1 motivating application): a travel agency
// has hundreds of registered travellers with preferences over a city's
// points of interest, wants to support 25 tour groups, and designs one
// plan of k POIs per group. Group formation decides who travels together;
// the group recommender decides each group's itinerary. Least-misery
// semantics fits tours: every stop must be at least acceptable to every
// traveller on the bus, and the plan's value is summed over its stops.
//
// Run: ./build/examples/travel_planning
#include <cstdio>

#include "baseline/cluster_baseline.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "grouprec/semantics.h"

int main() {
  using namespace groupform;

  // 600 registered travellers, 80 POIs, preferences from taste clusters
  // (families, backpackers, museum-goers, ...). Everyone has an opinion on
  // the famous head attractions; the tail is rated by enthusiasts only.
  data::SyntheticConfig config;
  config.num_users = 600;
  config.num_items = 80;
  config.num_taste_clusters = 25;
  config.cluster_spread = 0.2;
  config.noise_stddev = 0.3;
  config.popularity_skew = 1.3;
  config.min_ratings_per_user = 15;
  config.max_ratings_per_user = 40;
  config.always_rated_head = 10;
  config.seed = 2015;
  const auto matrix = data::GenerateLatentFactor(config);

  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kSum;
  problem.k = 7;          // 5-10 POIs per plan, per the paper
  problem.max_groups = 25;

  const auto grd = core::RunGreedy(problem);
  if (!grd.ok()) {
    std::fprintf(stderr, "%s\n", grd.status().ToString().c_str());
    return 1;
  }
  const auto base = baseline::BaselineFormer(problem).Solve(99);
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    return 1;
  }

  std::printf("Travel planning: %s\n\n", problem.ToString().c_str());
  common::TablePrinter table(
      {"method", "objective", "avg group satisfaction", "mean user rating",
       "groups"});
  for (const auto* result : {&*grd, &*base}) {
    table.AddRow({result->algorithm,
                  common::StrFormat("%.1f", result->objective),
                  common::StrFormat("%.1f",
                                    eval::AvgGroupSatisfaction(problem,
                                                               *result)),
                  common::StrFormat(
                      "%.2f", eval::MeanPerUserSatisfaction(problem,
                                                            *result)),
                  common::StrFormat("%d", result->num_groups())});
  }
  table.Print();

  // Show one itinerary.
  const auto& g0 = grd->groups.front();
  std::printf("\nSample plan for a group of %zu travellers (POIs): ",
              g0.members.size());
  for (const auto& si : g0.recommendation.items) {
    std::printf("POI-%d ", si.item);
  }
  std::printf("\n");
  return 0;
}
