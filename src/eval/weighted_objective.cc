#include "eval/weighted_objective.h"

#include <vector>

namespace groupform::eval {

double MeanUserNdcg(const core::FormationProblem& problem,
                    const core::FormationResult& result) {
  double total = 0.0;
  std::int64_t users = 0;
  for (const auto& g : result.groups) {
    std::vector<ItemId> items;
    items.reserve(g.recommendation.items.size());
    for (const auto& si : g.recommendation.items) items.push_back(si.item);
    for (UserId u : g.members) {
      total += grouprec::UserNdcg(problem.Store(), u, items, problem.k,
                                  problem.missing);
      ++users;
    }
  }
  return users > 0 ? total / static_cast<double>(users) : 0.0;
}

}  // namespace groupform::eval
