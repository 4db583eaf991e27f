// Parallel-execution scaling — not a paper figure: measures how the two
// thread-pooled hot paths scale with worker count on a MovieLens-like
// instance, and checks the §8/DESIGN.md §10.3 determinism contract along
// the way (parallel results must be byte-identical to serial).
//
//   (a) batch group scoring (core::ScoreGroups, one pool task per group):
//       the rescoring step of the clustering baselines and local search;
//   (b) eval::RunRepeated: independent seeded repetitions of a solver;
//   (c) OPT* localsearch passes: the plan-in-parallel/apply-serially
//       move loop, reported as pass throughput (passes per second).
//
// Reported speedups are relative to --threads 1 (the serial path). On a
// single-core box every row is ~1x by construction; on >= 4 cores batch
// scoring is expected to reach >= 2x at 4 threads. The final line is a
// machine-readable JSON summary for the perf-trajectory tracker.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/formation.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/sweep_json.h"
#include "grouprec/semantics.h"

namespace {

using namespace groupform;

core::FormationProblem Problem(const data::RatingMatrix& matrix) {
  core::FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 5;
  problem.max_groups = 10;
  return problem;
}

/// Round-robin split of the population into `count` groups — a stand-in
/// for the cluster partitions the baselines rescore.
std::vector<std::vector<UserId>> MakeGroups(std::int32_t num_users,
                                            int count) {
  std::vector<std::vector<UserId>> groups(
      static_cast<std::size_t>(count));
  for (std::int32_t u = 0; u < num_users; ++u) {
    groups[static_cast<std::size_t>(u % count)].push_back(u);
  }
  return groups;
}

double Checksum(const std::vector<core::GroupScore>& scores) {
  double sum = 0.0;
  for (const auto& score : scores) sum += score.satisfaction;
  return sum;
}

/// Structural fingerprint of a solution — members, recommended items,
/// and the objective's bits — so the identical-results column enforces
/// the full byte-identical contract, not just an equal objective (two
/// tie-equivalent partitions would pass an objective-only check).
std::size_t ResultFingerprint(const core::FormationResult& result) {
  std::size_t seed = common::HashVector(result.GroupSizes());
  common::HashCombineValue(seed, result.objective);
  for (const auto& group : result.groups) {
    common::HashCombine(seed, common::HashVector(group.members));
    for (const auto& item : group.recommendation.items) {
      common::HashCombineValue(seed, item.item);
      common::HashCombineValue(seed, item.score);
    }
  }
  return seed;
}

}  // namespace

int main() {
  const double scale = bench::BenchScale();
  const auto num_users =
      static_cast<std::int32_t>(bench::Scaled(2000, scale));
  const int num_groups = static_cast<int>(bench::Scaled(256, scale));
  const int rounds = 3;
  bench::PrintHeader(
      "Parallel scaling: batch scoring and repeated runs vs threads",
      "beyond the paper — DESIGN.md §10 execution engine",
      common::StrFormat("MovieLens-like n=%d m=500, %d groups rescored "
                        "x%d rounds; determinism checked per row",
                        num_users, num_groups, rounds));

  const auto matrix = data::GenerateLatentFactor(
      data::MovieLensLikeConfig(num_users, 500, /*seed=*/42));
  const auto problem = Problem(matrix);
  const auto groups = MakeGroups(num_users, num_groups);
  const auto scorer = problem.MakeScorer();

  // A separate, smaller instance for the localsearch pass loop: each pass
  // already costs n x ell full-group evaluations, so the 2000-user
  // instance would dwarf the other two workloads.
  const auto ls_users = static_cast<std::int32_t>(bench::Scaled(240, scale));
  const int ls_passes = 3;
  const auto ls_matrix = data::GenerateLatentFactor(
      data::MovieLensLikeConfig(ls_users, 120, /*seed=*/43));
  core::FormationProblem ls_problem = Problem(ls_matrix);
  ls_problem.max_groups = 8;
  // Random init + a fixed pass budget keeps every pass full of improving
  // candidates, so all thread counts execute the same ls_passes passes.
  const core::SolverOptions ls_options =
      core::SolverOptions()
          .Set("init_with_greedy", "false")
          .Set("max_passes", std::to_string(ls_passes));

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  double scoring_serial_seconds = 0.0;
  double repeated_serial_seconds = 0.0;
  double ls_serial_seconds = 0.0;
  double scoring_speedup_4t = 0.0;
  double repeated_speedup_4t = 0.0;
  double ls_speedup_4t = 0.0;
  double ls_pass_per_second_8t = 0.0;
  double reference_checksum = 0.0;
  double reference_mean = 0.0;
  std::size_t reference_ls_fingerprint = 0;
  bool deterministic = true;

  common::TablePrinter table({"threads", "batch-score s", "speedup",
                              "RunRepeated s", "speedup", "LS pass/s",
                              "speedup", "identical"});
  for (const int threads : thread_counts) {
    common::ThreadPool::SetDefaultThreadCount(threads);

    common::Stopwatch scoring_watch;
    double checksum = 0.0;
    for (int round = 0; round < rounds; ++round) {
      checksum = Checksum(
          core::ScoreGroups(problem, scorer, groups));
    }
    const double scoring_seconds = scoring_watch.ElapsedSeconds();

    common::Stopwatch repeated_watch;
    const auto repeated = eval::RunRepeated("greedy", problem, 8);
    const double repeated_seconds = repeated_watch.ElapsedSeconds();
    if (!repeated.ok()) {
      // A broken workload must not masquerade as a green data point.
      std::fprintf(stderr, "RunRepeated failed at %d threads: %s\n",
                   threads, repeated.status().ToString().c_str());
      return 1;
    }
    const double mean = repeated->mean_objective;

    common::Stopwatch ls_watch;
    const auto ls_outcome = eval::RunAlgorithmByName(
        "localsearch", ls_problem, /*seed=*/7, ls_options);
    const double ls_seconds = ls_watch.ElapsedSeconds();
    if (!ls_outcome.ok()) {
      std::fprintf(stderr, "localsearch failed at %d threads: %s\n",
                   threads, ls_outcome.status().ToString().c_str());
      return 1;
    }
    const std::size_t ls_fingerprint =
        ResultFingerprint(ls_outcome->result);
    const double ls_pass_per_second =
        ls_seconds > 0.0 ? static_cast<double>(ls_passes) / ls_seconds : 0.0;

    if (threads == 1) {
      scoring_serial_seconds = scoring_seconds;
      repeated_serial_seconds = repeated_seconds;
      ls_serial_seconds = ls_seconds;
      reference_checksum = checksum;
      reference_mean = mean;
      reference_ls_fingerprint = ls_fingerprint;
    }
    // Byte-identical contract: same bits at every thread count.
    const bool identical = checksum == reference_checksum &&
                           mean == reference_mean &&
                           ls_fingerprint == reference_ls_fingerprint;
    deterministic = deterministic && identical;

    const double scoring_speedup =
        scoring_seconds > 0.0 ? scoring_serial_seconds / scoring_seconds
                              : 0.0;
    const double repeated_speedup =
        repeated_seconds > 0.0 ? repeated_serial_seconds / repeated_seconds
                               : 0.0;
    const double ls_speedup =
        ls_seconds > 0.0 ? ls_serial_seconds / ls_seconds : 0.0;
    if (threads == 4) {
      scoring_speedup_4t = scoring_speedup;
      repeated_speedup_4t = repeated_speedup;
      ls_speedup_4t = ls_speedup;
    }
    if (threads == 8) ls_pass_per_second_8t = ls_pass_per_second;
    table.AddRow({common::StrFormat("%d", threads),
                  common::StrFormat("%.3f", scoring_seconds),
                  common::StrFormat("%.2fx", scoring_speedup),
                  common::StrFormat("%.3f", repeated_seconds),
                  common::StrFormat("%.2fx", repeated_speedup),
                  common::StrFormat("%.2f", ls_pass_per_second),
                  common::StrFormat("%.2fx", ls_speedup),
                  identical ? "yes" : "NO"});
  }
  common::ThreadPool::SetDefaultThreadCount(0);  // restore env/hardware
  table.Print();

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf(
      "\n{\"bench\":\"parallel_scaling\",\"users\":%d,\"groups\":%d,"
      "\"batch_scoring_speedup_4t\":%.3f,\"run_repeated_speedup_4t\":%.3f,"
      "\"localsearch_speedup_4t\":%.3f,\"localsearch_pass_per_s_8t\":%.3f,"
      "\"deterministic\":%s,\"hardware_threads\":%u}\n",
      num_users, num_groups, scoring_speedup_4t, repeated_speedup_4t,
      ls_speedup_4t, ls_pass_per_second_8t,
      deterministic ? "true" : "false", hardware == 0 ? 1U : hardware);

  // The same summary as a BENCH_*.json document for the perf-trajectory
  // tracker (GF_BENCH_JSON=<dir>), with the standard envelope.
  eval::JsonWriter json;
  json.BeginObject();
  eval::AppendBenchEnvelope(json, "parallel_scaling");
  json.Key("users").Int(num_users);
  json.Key("groups").Int(num_groups);
  json.Key("batch_scoring_speedup_4t").Number(scoring_speedup_4t);
  json.Key("run_repeated_speedup_4t").Number(repeated_speedup_4t);
  json.Key("localsearch_speedup_4t").Number(ls_speedup_4t);
  json.Key("localsearch_pass_per_s_8t").Number(ls_pass_per_second_8t);
  json.Key("deterministic").Bool(deterministic);
  json.Key("hardware_threads").Int(hardware == 0 ? 1 : hardware);
  json.EndObject();
  if (eval::EmitBenchJson("parallel_scaling", json.str()) != 0) return 1;
  return deterministic ? 0 : 1;
}
