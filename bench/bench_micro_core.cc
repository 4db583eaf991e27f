// Micro-benchmarks (google-benchmark) for the core operations and the
// design-choice ablations called out in DESIGN.md: per-user top-k
// extraction, delta epoch materialisation, bucket construction (the whole
// greedy pass), group top-k over full-catalogue vs truncated union
// candidates, Kendall-Tau distance with full vs truncated profiles, and
// the exact subset-DP growth.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "baseline/kendall_tau.h"
#include "common/random.h"
#include "core/delta.h"
#include "core/formation.h"
#include "core/greedy.h"
#include "data/synthetic.h"
#include "eval/sweep_json.h"
#include "exact/subset_dp.h"
#include "grouprec/group_scorer.h"
#include "recsys/preference_lists.h"

namespace {

using namespace groupform;

const data::RatingMatrix& SharedMatrix(std::int32_t users) {
  static auto* cache =
      new std::map<std::int32_t, data::RatingMatrix>();
  auto it = cache->find(users);
  if (it == cache->end()) {
    it = cache
             ->emplace(users, data::GenerateLatentFactor(
                                  data::YahooMusicLikeConfig(
                                      users, 2000, /*seed=*/42)))
             .first;
  }
  return it->second;
}

void BM_TopKListExtraction(benchmark::State& state) {
  const auto& matrix = SharedMatrix(10000);
  const int k = static_cast<int>(state.range(0));
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(recsys::TopKList(matrix, u, k));
    u = (u + 1) % matrix.num_users();
  }
}
BENCHMARK(BM_TopKListExtraction)->Arg(5)->Arg(25)->Arg(125);

// One delta epoch (DESIGN.md §13.2): a 3000 x 500 yahoo base under a
// 40-operation sequence in which four of five operations rerate a cell of
// an active user and the rest remove users or re-add removed ones.
void BM_MaterializeDeltas(benchmark::State& state) {
  const auto base = data::GenerateLatentFactor(
      data::YahooMusicLikeConfig(3000, 500, /*seed=*/42));
  common::Rng rng(7);
  std::vector<char> active(static_cast<std::size_t>(base.num_users()), 1);
  std::vector<UserId> removed;
  std::vector<core::PopulationDelta> deltas;
  while (deltas.size() < 40) {
    const auto user =
        static_cast<UserId>(rng.UniformInt(0, base.num_users() - 1));
    const bool is_active = active[static_cast<std::size_t>(user)] != 0;
    const double roll = rng.NextDouble();
    if (roll < 0.8) {
      if (!is_active) continue;
      deltas.push_back(
          {core::PopulationDelta::Kind::kRerate, user,
           static_cast<ItemId>(rng.UniformInt(0, base.num_items() - 1)),
           static_cast<double>(rng.UniformInt(1, 5))});
    } else if (!removed.empty() && roll > 0.9) {
      deltas.push_back(
          {core::PopulationDelta::Kind::kAddUser, removed.back()});
      active[static_cast<std::size_t>(removed.back())] = 1;
      removed.pop_back();
    } else {
      if (!is_active) continue;
      deltas.push_back({core::PopulationDelta::Kind::kRemoveUser, user});
      active[static_cast<std::size_t>(user)] = 0;
      removed.push_back(user);
    }
  }
  const auto applied = core::ApplyDeltas(base, deltas);
  if (!applied.ok()) {
    state.SkipWithError(applied.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MaterializeDeltas(base, *applied));
  }
  state.SetItemsProcessed(state.iterations() * base.num_ratings());
}
BENCHMARK(BM_MaterializeDeltas);

void BM_GreedyFormation(benchmark::State& state) {
  const auto& matrix = SharedMatrix(
      static_cast<std::int32_t>(state.range(0)));
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = state.range(1) == 0
                          ? grouprec::Semantics::kLeastMisery
                          : grouprec::Semantics::kAggregateVoting;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 5;
  problem.max_groups = 10;
  problem.candidate_depth = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RunGreedy(problem));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedyFormation)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({1000, 1})
    ->Args({10000, 1});

// Ablation: the residual group's candidate policy. depth 0 = full
// catalogue scan; depth d = union of members' top-d items (§4.1).
void BM_ResidualCandidatePolicy(benchmark::State& state) {
  const auto& matrix = SharedMatrix(5000);
  grouprec::GroupScorer::Options options;
  options.semantics = grouprec::Semantics::kLeastMisery;
  const grouprec::GroupScorer scorer(matrix, options);
  std::vector<UserId> group;
  for (UserId u = 0; u < 2000; ++u) group.push_back(u);
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    if (depth == 0) {
      benchmark::DoNotOptimize(scorer.TopKAllItems(group, 5));
    } else {
      benchmark::DoNotOptimize(scorer.TopKUnionCandidates(group, 5, depth));
    }
  }
}
BENCHMARK(BM_ResidualCandidatePolicy)->Arg(0)->Arg(5)->Arg(20)->Arg(100);

// Ablation: Kendall-Tau profile truncation (full merge-sort tau-b vs
// top-20 truncated profiles, the scalability-bench setting).
void BM_KendallTauDistance(benchmark::State& state) {
  const auto& matrix = SharedMatrix(5000);
  baseline::KendallTauOptions options;
  options.truncate = static_cast<int>(state.range(0));
  UserId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::KendallTauDistance(matrix, u, u + 1, options));
    u = (u + 2) % (matrix.num_users() - 1);
  }
}
BENCHMARK(BM_KendallTauDistance)->Arg(0)->Arg(20);

void BM_SubsetDpExact(benchmark::State& state) {
  const auto matrix = data::GenerateUniformDense(
      static_cast<std::int32_t>(state.range(0)), 6,
      data::RatingScale{1.0, 5.0}, 42);
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 2;
  problem.max_groups = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::SubsetDpSolver(problem).Solve(0));
  }
}
BENCHMARK(BM_SubsetDpExact)->Arg(8)->Arg(10)->Arg(12)->Arg(14);

}  // namespace

// BENCHMARK_MAIN, plus the repo-standard BENCH_*.json emission: the
// per-benchmark numbers belong to google-benchmark's own reporters
// (--benchmark_format=json), so the GF_BENCH_JSON document carries just
// the envelope (git describe, scale, registry) and a pointer to them.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  groupform::eval::JsonWriter json;
  json.BeginObject();
  groupform::eval::AppendBenchEnvelope(json, "micro_core");
  json.Key("note").String(
      "google-benchmark micro-suite; rerun with --benchmark_format=json "
      "for per-benchmark timings");
  json.EndObject();
  return groupform::eval::EmitBenchJson("micro_core", json.str());
}
