// The sweep engine's contracts (DESIGN.md §11): deterministic grid
// expansion, byte-identical table/JSON output at 1/2/8 threads, the
// unknown-solver NOT_FOUND path, failed-cell ERR rendering with a nonzero
// suite exit code, and DNF as the expected (non-failing) omission for
// over-budget cells.
#include "eval/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "eval/sweep_json.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

using core::FormationProblem;
using core::FormationSolver;
using core::SolverOptions;
using eval::RunSweep;
using eval::SweepCellState;
using eval::SweepInstance;
using eval::SweepSpec;

/// Dense x-user instance; deterministic per x.
SweepInstance MakeInstance(int users) {
  SweepInstance instance(data::GenerateUniformDense(
      users, 5, data::RatingScale{1.0, 5.0}, /*seed=*/17));
  instance.problem.k = 2;
  instance.problem.max_groups = 3;
  return instance;
}

/// One explicit series per registry name, with derived labels.
std::vector<eval::SweepSeries> Series(
    const std::vector<std::string>& solvers) {
  std::vector<eval::SweepSeries> series(solvers.size());
  for (std::size_t i = 0; i < solvers.size(); ++i) {
    series[i].solver = solvers[i];
  }
  return series;
}

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.name = "test_sweep";
  spec.title = "engine test";
  spec.axis = "users";
  spec.xs = {6, 8};
  spec.make_instance = [](int x, int) { return MakeInstance(x); };
  spec.record_seconds = false;  // determinism-contract mode
  return spec;
}

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override { common::ThreadPool::SetDefaultThreadCount(0); }
};

TEST_F(SweepTest, GridExpandsRowMajorWithOptionVariants) {
  SweepSpec spec = SmallSpec();
  // A SolverOptions grid: greedy × two labelled (no-op) variants, then
  // localsearch with a derived label.
  spec.series = Series({"greedy", "greedy", "localsearch"});
  spec.series[0].label = "GRD/v1";
  spec.series[0].options.Set("unused", "1");
  spec.series[1].label = "GRD/v2";
  spec.series[1].options.Set("unused", "2");
  spec.series_suffix = "-T";

  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->series.size(), 3u);
  EXPECT_EQ(result->series[0].label, "GRD/v1");
  EXPECT_EQ(result->series[1].label, "GRD/v2");
  EXPECT_EQ(result->series[2].label, "OPT*-T");  // derived label + suffix
  ASSERT_EQ(result->cells.size(), 6u);
  // Row-major: all series of xs[0], then xs[1].
  const int expected_x[] = {6, 6, 6, 8, 8, 8};
  const char* expected_solver[] = {"greedy", "greedy", "localsearch",
                                   "greedy", "greedy", "localsearch"};
  for (std::size_t i = 0; i < result->cells.size(); ++i) {
    EXPECT_EQ(result->cells[i].x, expected_x[i]) << i;
    EXPECT_EQ(result->cells[i].solver, expected_solver[i]) << i;
    EXPECT_EQ(result->cells[i].state, SweepCellState::kOk) << i;
    EXPECT_GT(result->cells[i].objective, 0.0) << i;
  }
  EXPECT_TRUE(result->all_ok());
}

TEST_F(SweepTest, RegistryDrivenSeriesHonourTheSolverFilter) {
  SweepSpec spec = SmallSpec();
  spec.solvers = {"localsearch", "greedy"};
  spec.series_suffix = "-LM-MIN";
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->series.size(), 2u);
  // Filter order is preserved verbatim (it is the user's column order).
  EXPECT_EQ(result->series[0].solver, "localsearch");
  EXPECT_EQ(result->series[0].label, "OPT*-LM-MIN");
  EXPECT_EQ(result->series[1].solver, "greedy");
  EXPECT_EQ(result->series[1].label, "GRD-LM-MIN");
}

TEST_F(SweepTest, RegistryDrivenSeriesDefaultToEveryRegisteredSolver) {
  SweepSpec spec = SmallSpec();
  spec.xs = {6};
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto names = core::SolverRegistry::Global().Names();
  ASSERT_EQ(result->series.size(), names.size());
  // Every registered solver appears — the acceptance criterion that a new
  // solver needs zero bench edits to join every figure.
  for (const auto& name : names) {
    bool found = false;
    for (const auto& series : result->series) {
      found = found || series.solver == name;
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST_F(SweepTest, TableAndJsonByteIdenticalAcrossThreadCounts) {
  SweepSpec spec = SmallSpec();
  spec.xs = {6, 8, 10};
  spec.repetitions = 2;
  spec.series = Series({"greedy", "localsearch"});
  // SecondsMetric is wall-clock-tagged: with record_seconds off it
  // reports 0, so even a timing column stays byte-identical.
  spec.metrics = {eval::ObjectiveMetric(), eval::SecondsMetric()};
  ASSERT_TRUE(spec.parallel_rows);
  ASSERT_FALSE(spec.record_seconds);

  common::ThreadPool::SetDefaultThreadCount(1);
  const auto serial = RunSweep(spec);
  ASSERT_TRUE(serial.ok()) << serial.status();
  const std::string serial_table = eval::RenderSweepTable(*serial);
  const std::string serial_json = eval::SweepResultToJson(*serial);
  EXPECT_TRUE(serial->all_ok());

  for (const int threads : {2, 8}) {
    common::ThreadPool::SetDefaultThreadCount(threads);
    const auto parallel = RunSweep(spec);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(eval::RenderSweepTable(*parallel), serial_table)
        << "threads=" << threads;
    EXPECT_EQ(eval::SweepResultToJson(*parallel), serial_json)
        << "threads=" << threads;
  }
}

TEST_F(SweepTest, UnknownSolverIsErrNotFoundAndFailsTheSuite) {
  SweepSpec spec = SmallSpec();
  eval::SweepSeries bogus;
  bogus.solver = "no-such-solver";
  spec.series = {bogus};
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->cells.size(), 2u);
  for (const auto& cell : result->cells) {
    EXPECT_EQ(cell.state, SweepCellState::kErr);
    EXPECT_EQ(cell.status.code(), common::StatusCode::kNotFound);
  }
  EXPECT_NE(eval::RenderSweepTable(*result).find("ERR(NOT_FOUND)"),
            std::string::npos);
  EXPECT_FALSE(result->all_ok());
  EXPECT_EQ(eval::SweepSuiteExitCode({*result}), 1);
}

/// A solver whose Solve always fails — the sentinel case the old benches
/// rendered as "-1.00" data.
class AlwaysFailsSolver : public FormationSolver {
 public:
  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t) const override {
    return common::Status::Internal("deliberate test failure");
  }
};

TEST_F(SweepTest, FailedCellsRenderErrWithCodeAndNonzeroExit) {
  auto& registry = core::SolverRegistry::Global();
  ASSERT_TRUE(registry
                  .Register("always-fails", "test stub",
                            [](const FormationProblem&,
                               const SolverOptions&) {
                              return common::StatusOr<
                                  std::unique_ptr<FormationSolver>>(
                                  std::make_unique<AlwaysFailsSolver>());
                            })
                  .ok());
  SweepSpec spec = SmallSpec();
  eval::SweepSeries failing;
  failing.solver = "always-fails";
  spec.series = {failing};
  const auto result = RunSweep(spec);
  registry.Unregister("always-fails");
  ASSERT_TRUE(result.ok()) << result.status();
  for (const auto& cell : result->cells) {
    EXPECT_EQ(cell.state, SweepCellState::kErr);
    EXPECT_EQ(cell.status.code(), common::StatusCode::kInternal);
    EXPECT_EQ(cell.objective, 0.0);  // no -1.00 masquerading as data
  }
  const std::string table = eval::RenderSweepTable(*result);
  EXPECT_NE(table.find("ERR(INTERNAL)"), std::string::npos);
  EXPECT_EQ(table.find("-1.00"), std::string::npos);
  EXPECT_EQ(eval::SweepSuiteExitCode({*result}), 1);
}

TEST_F(SweepTest, SolverBudgetIsDnfNotFailure) {
  SweepSpec spec = SmallSpec();
  spec.xs = {20};  // beyond subset DP's 16-user budget
  eval::SweepSeries exact;
  exact.solver = "exact";
  spec.series = {exact};
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->cells.size(), 1u);
  EXPECT_EQ(result->cells[0].state, SweepCellState::kDnf);
  EXPECT_NE(eval::RenderSweepTable(*result).find("DNF"),
            std::string::npos);
  EXPECT_TRUE(result->all_ok());  // the paper's "omitted", not an error
  EXPECT_EQ(eval::SweepSuiteExitCode({*result}), 0);
}

TEST_F(SweepTest, SeriesCapsSkipCellsAsDnfWithoutRunning) {
  SweepSpec spec = SmallSpec();
  spec.xs = {6, 8};
  eval::SweepSeries capped;
  capped.solver = "greedy";
  capped.user_cap = 7;  // 6-user row runs, 8-user row is over budget
  spec.series = {capped};
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cells[0].state, SweepCellState::kOk);
  EXPECT_EQ(result->cells[1].state, SweepCellState::kDnf);
  EXPECT_EQ(result->cells[1].status.code(),
            common::StatusCode::kResourceExhausted);
  EXPECT_TRUE(result->all_ok());
}

TEST_F(SweepTest, SingleXTransposesToSeriesRows) {
  SweepSpec spec = SmallSpec();
  spec.xs = {8};
  spec.series = Series({"greedy"});
  spec.metrics = {eval::ObjectiveMetric(), eval::SecondsMetric()};
  const auto result = RunSweep(spec);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string table = eval::RenderSweepTable(*result);
  EXPECT_NE(table.find("| series |"), std::string::npos) << table;
  EXPECT_NE(table.find("objective"), std::string::npos);
  EXPECT_NE(table.find("seconds"), std::string::npos);
}

TEST_F(SweepTest, InstanceGenerationSharedAcrossRepetitionsByDefault) {
  int calls = 0;
  SweepSpec spec = SmallSpec();
  spec.xs = {6};
  spec.repetitions = 3;
  spec.series = Series({"greedy"});
  spec.make_instance = [&calls](int x, int) {
    ++calls;
    return MakeInstance(x);
  };
  ASSERT_TRUE(RunSweep(spec).ok());
  EXPECT_EQ(calls, 1);  // matrix built once per x, seeds vary per rep

  calls = 0;
  spec.resample_per_repetition = true;  // Table 4's random samples
  ASSERT_TRUE(RunSweep(spec).ok());
  EXPECT_EQ(calls, 3);
}

TEST_F(SweepTest, GfBenchRepsOverridesSpecRepetitions) {
  SweepSpec spec = SmallSpec();
  spec.repetitions = 3;
  spec.series = Series({"greedy"});
  setenv("GF_BENCH_REPS", "1", /*overwrite=*/1);
  const auto overridden = RunSweep(spec);
  // A set-but-malformed value fails the run and names the variable
  // instead of silently running the spec's repetitions.
  setenv("GF_BENCH_REPS", "1,5", /*overwrite=*/1);
  const auto malformed = RunSweep(spec);
  unsetenv("GF_BENCH_REPS");
  ASSERT_TRUE(overridden.ok()) << overridden.status();
  EXPECT_EQ(overridden->repetitions, 1);
  EXPECT_EQ(malformed.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(malformed.status().message().find("GF_BENCH_REPS"),
            std::string::npos)
      << malformed.status();
  const auto plain = RunSweep(spec);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->repetitions, 3);
}

TEST_F(SweepTest, MalformedSpecsAreInvalidArgument) {
  SweepSpec no_xs = SmallSpec();
  no_xs.xs.clear();
  EXPECT_EQ(RunSweep(no_xs).status().code(),
            common::StatusCode::kInvalidArgument);
  SweepSpec no_factory = SmallSpec();
  no_factory.make_instance = nullptr;
  EXPECT_EQ(RunSweep(no_factory).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SweepJson, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(eval::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(eval::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(SweepJson, WriterProducesStructuredDocuments) {
  eval::JsonWriter w;
  w.BeginObject();
  w.Key("name").String("x");
  w.Key("xs").BeginArray().Int(1).Int(2).EndArray();
  w.Key("nested").BeginObject().Key("ok").Bool(true).EndObject();
  w.Key("value").Number(2.5);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"x\",\"xs\":[1,2],\"nested\":{\"ok\":true},"
            "\"value\":2.5}");
}

TEST(SweepJson, SuiteEnvelopeListsTheFullRegistry) {
  solvers::EnsureBuiltinSolversRegistered();
  const std::string json = eval::SweepSuiteToJson("t", {});
  EXPECT_NE(json.find("\"schema\":\"groupform.bench/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"registry\":["), std::string::npos);
  // The envelope reports every registered solver even when a sweep was
  // filtered — the perf tracker's view of what the build can run.
  for (const auto& name : core::SolverRegistry::Global().Names()) {
    EXPECT_NE(json.find("\"" + name + "\""), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace groupform
