#include "eval/paper_sweeps.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include <span>

#include "common/strings.h"
#include "core/constrained.h"
#include "core/delta.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/sweep_json.h"
#include "grouprec/semantics.h"
#include "solvers/builtin.h"

namespace groupform::eval {

namespace {

using grouprec::Aggregation;
using grouprec::Semantics;

/// Suffix "-LM-MAX" for a (semantics, aggregation) pair.
std::string SeriesSuffix(Semantics semantics, Aggregation aggregation) {
  return common::StrFormat("-%s-%s", grouprec::SemanticsToString(semantics),
                           grouprec::AggregationToString(aggregation));
}

core::FormationProblem QualityProblem(Semantics semantics,
                                      Aggregation aggregation, int k,
                                      int ell, int candidate_depth = 0) {
  core::FormationProblem problem;
  problem.semantics = semantics;
  problem.aggregation = aggregation;
  problem.k = k;
  problem.max_groups = ell;
  problem.candidate_depth = candidate_depth;
  return problem;
}

/// The scalability suites' budget policy (fig4/5/6): GRD is the paper's
/// scalable contribution and runs uncapped; the baseline runs to
/// GF_BASELINE_CAP users (5000) with the truncated-Kendall settings; every
/// other (present or future) registry solver is budgeted at GF_SCAL_CAP
/// users (1000) so a slow new solver degrades to DNF rows instead of
/// hanging the bench — the paper's own "do not terminate ... and are thus
/// omitted" policy.
void ApplyScalabilityPolicy(SweepSpec& spec) {
  // Unlike EnvScale, a cap accepts 0 — the caps' documented "unlimited".
  const auto env_cap = [](const char* name,
                          std::int64_t fallback) -> std::int64_t {
    const char* value = std::getenv(name);
    if (value == nullptr) return fallback;
    long long parsed = 0;
    if (!common::ParseInt64(value, &parsed) || parsed < 0) return fallback;
    return parsed;
  };
  const std::int64_t baseline_cap = env_cap("GF_BASELINE_CAP", 5000);
  const std::int64_t scal_cap = env_cap("GF_SCAL_CAP", 1000);
  spec.default_user_cap = scal_cap;
  spec.default_group_cap = 100;
  spec.user_caps = {{"greedy", 0}, {"baseline", baseline_cap}};
  spec.group_caps = {{"greedy", 0}, {"baseline", 100}};
  spec.solver_options["baseline"] = core::SolverOptions()
                                        .Set("kendall_truncate", "20")
                                        .Set("max_iterations", "20")
                                        .Set("medoid_candidates", "16")
                                        .Set("cache_pairwise_up_to", "0");
  spec.metrics = {SecondsMetric()};
  // Timing sweeps must stay serial: concurrent rows contend for cores and
  // inflate every wall clock (DESIGN.md §10.3).
  spec.parallel_rows = false;
  spec.repetitions = 1;
}

using MatrixPtr = std::shared_ptr<const data::RatingMatrix>;

/// Process-wide cache of generated matrices, keyed by their full
/// configuration. Suites reuse one matrix across rows, panels, and
/// repetitions (fig5's 16 cells share a single multi-second generation,
/// as the hand-rolled benches did); generation is deduplicated even when
/// parallel rows race on the same key. Entries live for the process — a
/// bench binary runs one suite, so the cache peaks at that suite's
/// distinct shapes.
MatrixPtr CachedMatrix(const std::string& key,
                       const std::function<data::RatingMatrix()>& generate) {
  static std::mutex mu;
  static auto* cache = new std::map<std::string, std::shared_future<MatrixPtr>>();
  std::promise<MatrixPtr> promise;
  std::shared_future<MatrixPtr> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache->find(key);
    if (it == cache->end()) {
      future = promise.get_future().share();
      cache->emplace(key, future);
      owner = true;
    } else {
      future = it->second;
    }
  }
  if (owner) {
    promise.set_value(
        std::make_shared<const data::RatingMatrix>(generate()));
  }
  return future.get();
}

MatrixPtr ScalMatrix(std::int32_t users, std::int32_t items) {
  return CachedMatrix(
      common::StrFormat("scal:%d:%d", users, items), [&] {
        return data::GenerateLatentFactor(
            data::YahooMusicLikeConfig(users, items, /*seed=*/42));
      });
}

MatrixPtr SharedQualityMatrix(std::int32_t users, std::int32_t items,
                              std::uint64_t seed,
                              bool movielens_like = false) {
  return CachedMatrix(
      common::StrFormat("quality:%d:%d:%llu:%d", users, items,
                        static_cast<unsigned long long>(seed),
                        movielens_like ? 1 : 0),
      [&] { return QualityMatrix(users, items, seed, movielens_like); });
}

SweepMetric QuantileMetric(const char* label,
                           double data::FivePointSummary::*field) {
  return {label, 2,
          [field](const core::FormationProblem&, const RunOutcome& outcome) {
            return GroupSizeSummary(outcome.result).*field;
          }};
}

SweepMetric AvgGroupSatisfactionMetric() {
  return {"avg sat", 1,
          [](const core::FormationProblem& problem,
             const RunOutcome& outcome) {
            return AvgGroupSatisfaction(problem, outcome.result);
          }};
}

SweepSuite MakeFig1(double scale) {
  SweepSuite suite;
  suite.name = "fig1";
  suite.title = "Figure 1: objective value, LM semantics, Max aggregation";
  suite.paper_ref =
      "paper Fig. 1(a,b,c); Yahoo! Music; defaults n=200 m=100 ell=10 k=5";
  suite.notes =
      "expected shape: GRD ~ OPT* >> Baseline; falls with n, rises with m "
      "and ell";
  const std::string suffix =
      SeriesSuffix(Semantics::kLeastMisery, Aggregation::kMax);

  SweepSpec a;
  a.name = "fig1a";
  a.title = "(a) varying number of users (m=100, ell=10, k=5)";
  a.axis = "users";
  for (const int n : {200, 400, 600, 800, 1000}) {
    a.xs.push_back(Scaled(n, scale));
  }
  a.series_suffix = suffix;
  a.repetitions = 3;
  a.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(x, 100, /*seed=*/42));
    instance.problem =
        QualityProblem(Semantics::kLeastMisery, Aggregation::kMax, 5, 10);
    return instance;
  };
  suite.specs.push_back(std::move(a));

  SweepSpec b;
  b.name = "fig1b";
  b.title = "(b) varying number of items (n=200, ell=10, k=5)";
  b.axis = "items";
  for (const int m : {100, 200, 300, 400, 500}) {
    b.xs.push_back(Scaled(m, scale));
  }
  b.series_suffix = suffix;
  b.repetitions = 3;
  b.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(200, x, /*seed=*/42));
    instance.problem =
        QualityProblem(Semantics::kLeastMisery, Aggregation::kMax, 5, 10);
    return instance;
  };
  suite.specs.push_back(std::move(b));

  SweepSpec c;
  c.name = "fig1c";
  c.title = "(c) varying number of groups (n=200, m=100, k=5)";
  c.axis = "groups";
  c.xs = {10, 15, 20, 25, 30};
  c.series_suffix = suffix;
  c.repetitions = 3;
  c.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(200, 100, /*seed=*/42));
    instance.problem =
        QualityProblem(Semantics::kLeastMisery, Aggregation::kMax, 5, x);
    return instance;
  };
  suite.specs.push_back(std::move(c));
  return suite;
}

SweepSuite MakeFig2() {
  SweepSuite suite;
  suite.name = "fig2";
  suite.title = "Figure 2: objective value vs top-k, LM semantics";
  suite.paper_ref =
      "paper Fig. 2(a) Min aggregation, 2(b) Sum aggregation; "
      "n=200 m=100 ell=10";
  suite.notes = "expected shape: (a) decreasing in k; (b) increasing, "
                "concave";
  const struct {
    const char* name;
    const char* title;
    Aggregation aggregation;
  } panels[] = {
      {"fig2a", "(a) Min aggregation", Aggregation::kMin},
      {"fig2b", "(b) Sum aggregation", Aggregation::kSum},
  };
  for (const auto& panel : panels) {
    SweepSpec spec;
    spec.name = panel.name;
    spec.title = panel.title;
    spec.axis = "top-k";
    spec.xs = {5, 10, 15, 20, 25};
    spec.series_suffix =
        SeriesSuffix(Semantics::kLeastMisery, panel.aggregation);
    spec.repetitions = 3;
    const Aggregation aggregation = panel.aggregation;
    spec.make_instance = [aggregation](int x, int) {
      SweepInstance instance(SharedQualityMatrix(200, 100, /*seed=*/42));
      instance.problem = QualityProblem(Semantics::kLeastMisery,
                                        aggregation, x, 10);
      return instance;
    };
    suite.specs.push_back(std::move(spec));
  }
  return suite;
}

SweepSuite MakeFig3() {
  SweepSuite suite;
  suite.name = "fig3";
  suite.title =
      "Figure 3: avg group satisfaction over the top-k list, AV/Min";
  suite.paper_ref =
      "paper Fig. 3(a-d); MovieLens; defaults n=200 m=100 ell=10 k=5";
  suite.notes =
      "per-member normalised; ceiling is k * r_max = 25 for k=5";
  const std::string suffix =
      SeriesSuffix(Semantics::kAggregateVoting, Aggregation::kMin);
  const auto base_spec = [&suffix](const char* name, const char* title,
                                   const char* axis) {
    SweepSpec spec;
    spec.name = name;
    spec.title = title;
    spec.axis = axis;
    spec.series_suffix = suffix;
    spec.metrics = {AvgSatPerMemberMetric()};
    return spec;
  };

  SweepSpec a = base_spec(
      "fig3a", "(a) varying number of users (m=100, ell=10, k=5)", "users");
  a.xs = {200, 400, 600, 800, 1000};
  a.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(x, 100, /*seed=*/7, /*movielens_like=*/true));
    instance.problem = QualityProblem(Semantics::kAggregateVoting,
                                      Aggregation::kMin, 5, 10);
    return instance;
  };
  suite.specs.push_back(std::move(a));

  SweepSpec b = base_spec(
      "fig3b", "(b) varying number of items (n=200, ell=10, k=5)", "items");
  b.xs = {100, 200, 300, 400, 500};
  b.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(200, x, /*seed=*/7, /*movielens_like=*/true));
    instance.problem = QualityProblem(Semantics::kAggregateVoting,
                                      Aggregation::kMin, 5, 10);
    return instance;
  };
  suite.specs.push_back(std::move(b));

  SweepSpec c = base_spec(
      "fig3c", "(c) varying number of groups (n=200, m=100, k=5)",
      "groups");
  c.xs = {10, 15, 20, 25, 30};
  c.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(200, 100, /*seed=*/7, /*movielens_like=*/true));
    instance.problem = QualityProblem(Semantics::kAggregateVoting,
                                      Aggregation::kMin, 5, x);
    return instance;
  };
  suite.specs.push_back(std::move(c));

  SweepSpec d = base_spec("fig3d", "(d) varying top-k (n=200, m=100, ell=10)",
                          "top-k");
  d.xs = {5, 10, 15, 20, 25};
  d.make_instance = [](int x, int) {
    SweepInstance instance(SharedQualityMatrix(200, 100, /*seed=*/7, /*movielens_like=*/true));
    instance.problem = QualityProblem(Semantics::kAggregateVoting,
                                      Aggregation::kMin, x, 10);
    return instance;
  };
  suite.specs.push_back(std::move(d));
  return suite;
}

/// Fig. 4 (LM) and Fig. 6 (AV) share axes; only the semantics differ.
SweepSuite MakeScalabilitySuite(const std::string& name, Semantics semantics,
                                double scale) {
  SweepSuite suite;
  suite.name = name;
  const char* sem = grouprec::SemanticsToString(semantics);
  suite.title = common::StrFormat(
      "Figure %s: scalability, %s semantics, Min aggregation (seconds)",
      name == "fig4" ? "4" : "6", sem);
  suite.paper_ref = common::StrFormat(
      "paper Fig. %s(a,b,c); paper scale n=100k m=10k ell=10 k=5",
      name == "fig4" ? "4" : "6");
  suite.notes = common::StrFormat(
      "GF_BENCH_SCALE=%.2f; GRD uncapped, baseline to GF_BASELINE_CAP "
      "users (truncated Kendall profiles), other solvers to GF_SCAL_CAP "
      "users; over-budget cells report DNF",
      scale);
  const std::string suffix = SeriesSuffix(semantics, Aggregation::kMin);

  SweepSpec a;
  a.name = name + "a";
  a.title = "(a) varying number of users (m=2000, ell=10, k=5)";
  a.axis = "users";
  for (const int n : {1000, 2000, 5000, 10000, 20000, 50000}) {
    a.xs.push_back(Scaled(n, scale));
  }
  a.series_suffix = suffix;
  a.make_instance = [semantics](int x, int) {
    SweepInstance instance(ScalMatrix(x, 2000));
    instance.problem = QualityProblem(semantics, Aggregation::kMin, 5, 10,
                                      /*candidate_depth=*/5);
    return instance;
  };
  ApplyScalabilityPolicy(a);
  suite.specs.push_back(std::move(a));

  SweepSpec b;
  b.name = name + "b";
  b.title = "(b) varying number of items (n=5000, ell=10, k=5)";
  b.axis = "items";
  for (const int m : {1000, 2500, 5000, 10000}) {
    b.xs.push_back(Scaled(m, scale));
  }
  b.series_suffix = suffix;
  b.make_instance = [semantics](int x, int) {
    SweepInstance instance(ScalMatrix(5000, x));
    instance.problem = QualityProblem(semantics, Aggregation::kMin, 5, 10,
                                      /*candidate_depth=*/5);
    return instance;
  };
  ApplyScalabilityPolicy(b);
  suite.specs.push_back(std::move(b));

  SweepSpec c;
  c.name = name + "c";
  c.title = "(c) varying number of groups (n=5000, m=2000, k=5)";
  c.axis = "groups";
  c.xs = {10, 100, 1000, 10000};
  c.series_suffix = suffix;
  const auto users_c = Scaled(5000, scale);
  c.make_instance = [semantics, users_c](int x, int) {
    SweepInstance instance(ScalMatrix(users_c, 2000));
    instance.problem = QualityProblem(semantics, Aggregation::kMin, 5, x,
                                      /*candidate_depth=*/5);
    return instance;
  };
  ApplyScalabilityPolicy(c);
  suite.specs.push_back(std::move(c));
  return suite;
}

SweepSuite MakeFig5(double scale) {
  SweepSuite suite;
  suite.name = "fig5";
  suite.title = "Figure 5: running time vs top-k (seconds)";
  suite.paper_ref = "paper Fig. 5(a-d); paper scale n=100k m=10k ell=10";
  suite.notes = common::StrFormat(
      "n=%d, m=2000, ell=10 at GF_BENCH_SCALE=%.2f; candidate depth "
      "follows k",
      Scaled(4000, scale), scale);
  const auto users = Scaled(4000, scale);
  const struct {
    const char* name;
    const char* title;
    Semantics semantics;
    Aggregation aggregation;
  } panels[] = {
      {"fig5a", "(a) LM, Min aggregation", Semantics::kLeastMisery,
       Aggregation::kMin},
      {"fig5b", "(b) LM, Sum aggregation", Semantics::kLeastMisery,
       Aggregation::kSum},
      {"fig5c", "(c) AV, Min aggregation", Semantics::kAggregateVoting,
       Aggregation::kMin},
      {"fig5d", "(d) AV, Sum aggregation", Semantics::kAggregateVoting,
       Aggregation::kSum},
  };
  for (const auto& panel : panels) {
    SweepSpec spec;
    spec.name = panel.name;
    spec.title = panel.title;
    spec.axis = "top-k";
    spec.xs = {5, 25, 125, 625};
    spec.series_suffix = SeriesSuffix(panel.semantics, panel.aggregation);
    const Semantics semantics = panel.semantics;
    const Aggregation aggregation = panel.aggregation;
    spec.make_instance = [semantics, aggregation, users](int x, int) {
      SweepInstance instance(ScalMatrix(users, 2000));
      instance.problem = QualityProblem(semantics, aggregation, x, 10,
                                        /*candidate_depth=*/x);
      return instance;
    };
    ApplyScalabilityPolicy(spec);
    // Fig. 5's fixed n ran the baseline at every k in the original bench;
    // keep it uncapped here, with the lighter clustering budget.
    spec.user_caps["baseline"] = 0;
    spec.solver_options["baseline"].Set("max_iterations", "10");
    suite.specs.push_back(std::move(spec));
  }
  return suite;
}

SweepSuite MakeTable4() {
  SweepSuite suite;
  suite.name = "table4";
  suite.title = "Table 4: distribution of average group size";
  suite.paper_ref =
      "paper Table 4; 3 samples of n=200 m=100 ell=10 k=5, Yahoo-like";
  suite.notes =
      "five-point summaries averaged over 3 samples; expected shape: AV "
      "sizes larger/more even than LM; MAX coarser keys than SUM";
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    SweepSpec spec;
    spec.name = common::StrFormat(
        "table4_%s", semantics == Semantics::kLeastMisery ? "lm" : "av");
    spec.title = common::StrFormat("GRD group sizes under %s",
                                   grouprec::SemanticsToString(semantics));
    spec.axis = "sample";
    spec.xs = {0};
    // Table 4 is about the paper's contribution only, so the series are
    // explicit: GRD under Max and Sum bucketing keys.
    for (const auto aggregation : {Aggregation::kMax, Aggregation::kSum}) {
      SweepSeries series;
      series.solver = "greedy";
      series.label = "GRD" + SeriesSuffix(semantics, aggregation);
      series.tweak = [aggregation](core::FormationProblem& problem) {
        problem.aggregation = aggregation;
      };
      spec.series.push_back(std::move(series));
    }
    const Semantics sem = semantics;
    // Each repetition is one of the paper's random samples; the quantile
    // metrics then average across samples in repetition order.
    spec.repetitions = 3;
    spec.resample_per_repetition = true;
    spec.make_instance = [sem](int, int repetition) {
      SweepInstance instance(SharedQualityMatrix( 200, 100, /*seed=*/1000 + static_cast<std::uint64_t>(repetition)));
      instance.problem = QualityProblem(sem, Aggregation::kMax, 5, 10);
      return instance;
    };
    spec.metrics = {
        QuantileMetric("Minimum", &data::FivePointSummary::min),
        QuantileMetric("Q1", &data::FivePointSummary::q1),
        QuantileMetric("Median", &data::FivePointSummary::median),
        QuantileMetric("Q3", &data::FivePointSummary::q3),
        QuantileMetric("Maximum", &data::FivePointSummary::max),
    };
    suite.specs.push_back(std::move(spec));
  }
  return suite;
}

SweepSuite MakeAblation(double scale) {
  SweepSuite suite;
  suite.name = "ablation";
  suite.title = "Ablation: residual candidate depth (GRD-LM-MIN)";
  suite.paper_ref =
      "design choice from DESIGN.md §4.1 (not a paper figure)";
  suite.notes =
      "depth 0 = full catalogue; depth k = paper's literal policy";
  SweepSpec spec;
  spec.name = "ablation_depth";
  spec.title = "objective and time vs residual candidate depth";
  spec.axis = "depth";
  spec.xs = {5, 10, 20, 50, 100, 0};
  SweepSeries greedy;
  greedy.solver = "greedy";
  greedy.label = "GRD-LM-MIN";
  spec.series = {std::move(greedy)};
  const auto users = Scaled(10000, scale);
  spec.make_instance = [users](int x, int) {
    SweepInstance instance(ScalMatrix(users, 5000));
    instance.problem = QualityProblem(Semantics::kLeastMisery,
                                      Aggregation::kMin, 5, 10,
                                      /*candidate_depth=*/x);
    return instance;
  };
  spec.metrics = {
      ObjectiveMetric(),
      {"residual items", 0,
       [](const core::FormationProblem&, const RunOutcome& outcome) {
         return outcome.result.groups.empty()
                    ? 0.0
                    : static_cast<double>(outcome.result.groups.back()
                                              .recommendation.size());
       }},
      SecondsMetric(),
  };
  spec.parallel_rows = false;  // timing column
  suite.specs.push_back(std::move(spec));
  return suite;
}

SweepSuite MakeBaselinePanorama() {
  SweepSuite suite;
  suite.name = "baseline";
  suite.title =
      "Baseline panorama: GRD vs every registered formation algorithm";
  suite.paper_ref =
      "extends the paper's §7 comparison with the intro's similarity-based "
      "formation";
  suite.notes =
      "n=300 m=100 ell=10 k=5; objective | avg group satisfaction | "
      "seconds; DNF = over the solver's own instance budget";
  for (const auto semantics :
       {Semantics::kLeastMisery, Semantics::kAggregateVoting}) {
    for (const auto aggregation : {Aggregation::kMax, Aggregation::kSum}) {
      SweepSpec spec;
      spec.name = common::StrFormat(
          "baseline_%s_%s",
          semantics == Semantics::kLeastMisery ? "lm" : "av",
          aggregation == Aggregation::kMax ? "max" : "sum");
      spec.title = common::StrFormat(
          "%s / %s", grouprec::SemanticsToString(semantics),
          grouprec::AggregationToString(aggregation));
      spec.axis = "users";
      spec.xs = {300};
      spec.series_suffix = SeriesSuffix(semantics, aggregation);
      const Semantics sem = semantics;
      const Aggregation agg = aggregation;
      spec.make_instance = [sem, agg](int x, int) {
        SweepInstance instance(SharedQualityMatrix(x, 100, /*seed=*/2718));
        instance.problem = QualityProblem(sem, agg, 5, 10);
        return instance;
      };
      spec.metrics = {ObjectiveMetric(), AvgGroupSatisfactionMetric(),
                      SecondsMetric()};
      spec.parallel_rows = false;  // one row; seconds column stays honest
      suite.specs.push_back(std::move(spec));
    }
  }
  return suite;
}

/// The improvement passes the solver actually ran (FormationResult::
/// refine_passes; `warm_start_passes` on the wire).
SweepMetric PassesMetric() {
  return {"passes", 0,
          [](const core::FormationProblem&, const RunOutcome& outcome) {
            return static_cast<double>(outcome.result.refine_passes);
          }};
}

/// The serving layer's perf trajectory (DESIGN.md §13, not a paper
/// figure): a fixed cumulative delta script against one quality matrix,
/// one sweep per epoch, comparing OPT*-LS cold (full re-solve of the
/// post-delta instance) against OPT*-LS warm-started from the previous
/// epoch's solution, exactly as `groupform.delta/1` folds warm starts
/// forward. The warm chain is computed here, eagerly, with the same
/// AdaptAssignment carry the session uses, so the suite's warm series
/// reproduce the server's trajectory bit-for-bit. BENCH_delta_vs_resolve
/// .json snapshots the pass counts (bench/snapshots/).
common::StatusOr<SweepSuite> MakeDeltaVsResolve(double scale) {
  solvers::EnsureBuiltinSolversRegistered();
  SweepSuite suite;
  suite.name = "delta_vs_resolve";
  suite.title =
      "Streaming re-formation: warm-started OPT*-LS vs full re-solve";
  suite.paper_ref =
      "serving extension (docs/PROTOCOL.md groupform.delta/1); "
      "not a paper figure";
  suite.notes =
      "each epoch applies one more population delta; warm rows climb "
      "from the previous epoch's partition, cold rows re-solve from the "
      "greedy seed; objective(warm) >= objective(cold) with fewer passes "
      "is the win the delta endpoint banks on";

  const std::int32_t users = Scaled(120, scale, /*floor=*/32);
  const std::int32_t items = 60;
  const MatrixPtr base = SharedQualityMatrix(users, items, /*seed=*/42);
  using Kind = core::PopulationDelta::Kind;
  const std::vector<core::PopulationDelta> script = {
      {Kind::kRemoveUser, 3},
      {Kind::kRemoveUser, 11},
      {Kind::kAddUser, 3},
      {Kind::kRerate, 0, 2, 5.0},
  };

  // Fold the warm chain forward: epoch 0 solves cold; epoch i carries
  // epoch i-1's groups through core::CarryAssignment into a
  // start_assignment.
  core::FormationResult previous;
  std::vector<UserId> previous_active;
  for (std::size_t step = 0; step <= script.size(); ++step) {
    const std::span<const core::PopulationDelta> prefix(script.data(),
                                                        step);
    GF_ASSIGN_OR_RETURN(core::AppliedDeltas applied,
                        core::ApplyDeltas(*base, prefix));
    MatrixPtr matrix = base;
    if (!applied.identical_to_base) {
      GF_ASSIGN_OR_RETURN(data::RatingMatrix materialized,
                          core::MaterializeDeltas(*base, applied));
      matrix = std::make_shared<const data::RatingMatrix>(
          std::move(materialized));
    }
    core::FormationProblem problem = QualityProblem(
        Semantics::kAggregateVoting, Aggregation::kMax, /*k=*/5, /*ell=*/8);
    problem.matrix = matrix.get();
    core::SolverOptions warm_options;
    if (step > 0) {
      GF_ASSIGN_OR_RETURN(
          const auto local,
          core::CarryAssignment(previous, previous_active,
                                applied.active_users, problem.max_groups));
      warm_options.SetStartAssignment(local);
    }
    GF_ASSIGN_OR_RETURN(const auto solver,
                        core::SolverRegistry::Global().Create(
                            "localsearch", problem, warm_options));
    GF_ASSIGN_OR_RETURN(previous,
                        solver->Solve(core::FormationSolver::kDefaultSeed));
    previous_active = applied.active_users;

    SweepSpec spec;
    spec.name = common::StrFormat("delta_step%zu", step);
    spec.title = common::StrFormat(
        "epoch %zu (%zu of %zu deltas applied, %d active users)", step,
        step, script.size(), matrix->num_users());
    spec.axis = "deltas";
    spec.xs = {static_cast<int>(step)};
    SweepSeries cold;
    cold.solver = "localsearch";
    cold.label = "OPT*-LS/cold";
    SweepSeries warm;
    warm.solver = "localsearch";
    warm.label = "OPT*-LS/warm";
    warm.options = warm_options;
    spec.series = {std::move(cold), std::move(warm)};
    spec.metrics = {ObjectiveMetric(), PassesMetric()};
    spec.record_seconds = false;
    spec.make_instance = [matrix](int, int) {
      SweepInstance instance(matrix);
      instance.problem = QualityProblem(Semantics::kAggregateVoting,
                                        Aggregation::kMax, 5, 8);
      return instance;
    };
    suite.specs.push_back(std::move(spec));
  }
  return suite;
}

/// Fairness-floor shortfall, recomputed from the partition itself so the
/// column is honest for unconstrained series too (FormationResult::
/// floor_violations is only filled by fairgreedy).
SweepMetric FloorViolationsMetric() {
  return {"floor violations", 0,
          [](const core::FormationProblem& problem,
             const RunOutcome& outcome) {
            if (!problem.constraints.has_min_user_sat) return 0.0;
            int violations = 0;
            for (const auto& group : outcome.result.groups) {
              for (const UserId user : group.members) {
                if (core::UserSatisfaction(problem, user,
                                           group.recommendation) <
                    problem.constraints.min_user_sat - 1e-9) {
                  ++violations;
                }
              }
            }
            return static_cast<double>(violations);
          }};
}

/// The constrained family vs the unconstrained GRD bound (DESIGN.md §17):
/// three panels sweeping capacity, link-pair load, and the fairness
/// floor. Every panel carries the plain greedy series on the *same*
/// constrained instance — greedy ignores problem.constraints, so its
/// objective is the unconstrained upper reference the snapshot validator
/// gates the constrained series against (tools/validate_bench_json.py).
SweepSuite MakeConstrainedAblation(double scale) {
  SweepSuite suite;
  suite.name = "constrained_ablation";
  suite.title =
      "Constrained formation: capacity, link pairs, and fairness floors "
      "vs the unconstrained GRD bound";
  suite.paper_ref =
      "constraint extension of the paper's GRD (DESIGN.md §17); "
      "not a paper figure";
  suite.notes =
      "greedy rows ignore the constraints and bound the constrained rows "
      "from above; floor violations count users below min_user_sat";
  const std::int32_t users = Scaled(60, scale, /*floor=*/24);
  const std::int32_t items = 60;
  const auto series_for = [](std::initializer_list<const char*> solvers) {
    std::vector<SweepSeries> series;
    for (const char* solver : solvers) {
      SweepSeries entry;
      entry.solver = solver;
      entry.label = std::string(solver) == "greedy"
                        ? "GRD (unconstrained bound)"
                        : std::string(solver);
      series.push_back(std::move(entry));
    }
    return series;
  };

  {
    SweepSpec cap;
    cap.name = "constrained_cap";
    cap.title = "objective vs per-group capacity (min size 2)";
    cap.axis = "max_size";
    cap.xs = {8, 10, 15};
    cap.series = series_for({"greedy", "capgreedy", "pairgreedy",
                             "fairgreedy"});
    cap.make_instance = [users, items](int x, int) {
      SweepInstance instance(SharedQualityMatrix(users, items, /*seed=*/271));
      instance.problem = QualityProblem(Semantics::kLeastMisery,
                                        Aggregation::kMin, 5, 8);
      instance.problem.constraints.min_group_size = 2;
      instance.problem.constraints.max_group_size = x;
      return instance;
    };
    suite.specs.push_back(std::move(cap));
  }

  {
    SweepSpec links;
    links.name = "constrained_links";
    links.title =
        "objective vs link-pair load (x must-link + x cannot-link pairs)";
    links.axis = "pairs";
    links.xs = {1, 2, 4};
    links.series = series_for({"greedy", "pairgreedy", "fairgreedy"});
    links.make_instance = [users, items](int x, int) {
      SweepInstance instance(SharedQualityMatrix(users, items, /*seed=*/271));
      instance.problem = QualityProblem(Semantics::kLeastMisery,
                                        Aggregation::kMin, 5, 8);
      auto& constraints = instance.problem.constraints;
      constraints.max_group_size = 15;
      for (int i = 0; i < x; ++i) {
        // Disjoint id blocks keep the pair sets contradiction-free at
        // every x (24-user floor: ids stay below 20).
        constraints.must_link.emplace_back(2 * i, 2 * i + 1);
        constraints.cannot_link.emplace_back(10 + 2 * i, 11 + 2 * i);
      }
      return instance;
    };
    suite.specs.push_back(std::move(links));
  }

  {
    SweepSpec floor;
    floor.name = "constrained_floor";
    floor.title = "objective and residual violations vs fairness floor";
    floor.axis = "floor_x10";
    floor.xs = {20, 25, 30};  // min_user_sat = x / 10
    floor.series = series_for({"greedy", "fairgreedy"});
    floor.make_instance = [users, items](int x, int) {
      SweepInstance instance(SharedQualityMatrix(users, items, /*seed=*/271));
      instance.problem = QualityProblem(Semantics::kLeastMisery,
                                        Aggregation::kMin, 5, 8);
      instance.problem.constraints.has_min_user_sat = true;
      instance.problem.constraints.min_user_sat = x / 10.0;
      return instance;
    };
    floor.metrics = {ObjectiveMetric(), FloorViolationsMetric()};
    suite.specs.push_back(std::move(floor));
  }
  return suite;
}

}  // namespace

data::RatingMatrix QualityMatrix(std::int32_t num_users,
                                 std::int32_t num_items, std::uint64_t seed,
                                 bool movielens_like) {
  auto config = movielens_like
                    ? data::MovieLensLikeConfig(num_users, num_items, seed)
                    : data::YahooMusicLikeConfig(num_users, num_items, seed);
  config.min_ratings_per_user = std::max(5, num_items / 8);
  config.max_ratings_per_user = std::max(10, num_items / 3);
  config.popularity_skew = 1.3;
  config.noise_stddev = 0.3;
  config.num_taste_clusters = std::max(2, num_users / 25);
  config.cluster_spread = 0.2;
  config.always_rated_head = 10;
  return data::GenerateLatentFactor(config);
}

void PrintBenchHeader(const std::string& experiment,
                      const std::string& paper_ref,
                      const std::string& notes) {
  const std::string banner(72, '=');
  std::printf("%s\n%s — %s\n", banner.c_str(), experiment.c_str(),
              paper_ref.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("%s\n", banner.c_str());
}

std::vector<std::string> PaperSuiteNames() {
  return {"fig1",   "fig2",     "fig3",     "fig4",
          "fig5",   "fig6",     "table4",   "ablation",
          "baseline", "delta_vs_resolve", "constrained_ablation"};
}

common::StatusOr<SweepSuite> MakePaperSuite(const std::string& name) {
  const double scale = BenchScale();
  if (name == "fig1") return MakeFig1(scale);
  if (name == "fig2") return MakeFig2();
  if (name == "fig3") return MakeFig3();
  if (name == "fig4") {
    return MakeScalabilitySuite("fig4", Semantics::kLeastMisery, scale);
  }
  if (name == "fig5") return MakeFig5(scale);
  if (name == "fig6") {
    return MakeScalabilitySuite("fig6", Semantics::kAggregateVoting, scale);
  }
  if (name == "table4") return MakeTable4();
  if (name == "ablation") return MakeAblation(scale);
  if (name == "baseline") return MakeBaselinePanorama();
  if (name == "delta_vs_resolve") return MakeDeltaVsResolve(scale);
  if (name == "constrained_ablation") return MakeConstrainedAblation(scale);
  return common::Status::NotFound(
      "unknown sweep suite '" + name + "'; available: " +
      common::Join(PaperSuiteNames(), ", "));
}

int RunPaperSuiteMain(const std::string& name) {
  const auto suite = MakePaperSuite(name);
  if (!suite.ok()) {
    std::fprintf(stderr, "%s\n", suite.status().ToString().c_str());
    return 2;
  }
  PrintBenchHeader(suite->title, suite->paper_ref, suite->notes);
  std::vector<SweepResult> results;
  for (const auto& spec : suite->specs) {
    auto result = RunSweep(spec);
    if (!result.ok()) {
      std::fprintf(stderr, "sweep %s: %s\n", spec.name.c_str(),
                   result.status().ToString().c_str());
      return 2;
    }
    std::printf("%s\n", result->title.c_str());
    std::fputs(RenderSweepTable(*result).c_str(), stdout);
    std::printf("\n");
    // Failed cells never masquerade as data: ERR(<code>) in the table,
    // the full status here, and a nonzero exit below.
    for (const auto& cell : result->cells) {
      if (cell.state == SweepCellState::kErr) {
        std::fprintf(stderr, "%s: %s at %s=%d failed: %s\n",
                     result->name.c_str(), cell.label.c_str(),
                     result->axis.c_str(), cell.x,
                     cell.status.ToString().c_str());
      }
    }
    results.push_back(std::move(*result));
  }
  if (EmitBenchJson(suite->name, SweepSuiteToJson(suite->name, results)) !=
      0) {
    return 1;
  }
  return SweepSuiteExitCode(results);
}

}  // namespace groupform::eval
