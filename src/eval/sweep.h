#ifndef GROUPFORM_EVAL_SWEEP_H_
#define GROUPFORM_EVAL_SWEEP_H_

// The registry-driven sweep engine behind the CLI's `sweep` subcommand
// (DESIGN.md §11). A SweepSpec declares the axes of one paper panel — x
// values, solver series, metrics, repetitions — and RunSweep expands the
// grid deterministically: series default to every solver in
// core::SolverRegistry (or the spec's `solvers` filter), rows run in
// parallel on common::ThreadPool with serial in-order aggregation, and
// the result renders as both an ASCII table and a JSON document
// (sweep_json.h) that are byte-identical at every thread count once
// wall-clock capture is off (DESIGN.md §10.3).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/formation.h"
#include "core/solver.h"
#include "data/rating_matrix.h"
#include "eval/experiment.h"

namespace groupform::eval {

/// One generated problem instance: the engine binds `problem.matrix` to
/// `*matrix` after the factory returns, so factories never juggle pointer
/// lifetimes (and must not point the problem anywhere else). The matrix
/// is held through a shared_ptr so a factory can hand the same generated
/// matrix to every row that needs it (paper timing suites reuse one
/// multi-second matrix across all x values) instead of regenerating.
struct SweepInstance {
  explicit SweepInstance(data::RatingMatrix matrix_in)
      : matrix(std::make_shared<const data::RatingMatrix>(
            std::move(matrix_in))) {}
  explicit SweepInstance(std::shared_ptr<const data::RatingMatrix> shared)
      : matrix(std::move(shared)) {}

  std::shared_ptr<const data::RatingMatrix> matrix;
  core::FormationProblem problem;
};

/// Builds the instance for x-axis value `x`. `repetition` (0-based) lets a
/// spec resample its dataset per repetition (Table 4's "3 random
/// samples") — but only when the spec sets resample_per_repetition; by
/// default the factory is called once per x with repetition 0 and the
/// instance is shared across repetitions (only the solver seed varies).
using InstanceFactory = std::function<SweepInstance(int x, int repetition)>;

/// Extracts one reported number from a finished run.
using MetricFn = std::function<double(const core::FormationProblem& problem,
                                      const RunOutcome& outcome)>;

/// A named column value: label, table precision, and extractor. Metric
/// values are averaged over the spec's repetitions in index order.
struct SweepMetric {
  std::string label;
  int precision = 2;
  MetricFn fn;
  /// Marks metrics derived from wall clock: their values (like
  /// SweepCell::seconds) report 0 when the spec's record_seconds is off,
  /// so the byte-identical determinism mode covers every rendered field.
  bool wall_clock = false;
};

/// Obj = sum of group satisfactions (the paper's objective).
SweepMetric ObjectiveMetric();
/// Wall-clock seconds of formation + recommendation (zeroed when the
/// spec's record_seconds is off).
SweepMetric SecondsMetric();
/// Figure 3's quality measure: per-member-normalised satisfaction over the
/// whole recommended list, averaged over groups.
SweepMetric AvgSatPerMemberMetric();

/// One column family of the sweep: a registry solver plus its overrides.
struct SweepSeries {
  /// core::SolverRegistry name; unknown names surface as ERR(NOT_FOUND)
  /// cells rather than being silently dropped.
  std::string solver;
  /// Column label; empty derives SolverDisplayLabel(solver) + the spec's
  /// series_suffix.
  std::string label;
  /// Per-series solver options.
  core::SolverOptions options;
  /// Optional problem adjustment applied after the instance factory (e.g.
  /// Table 4 sweeping the aggregation while everything else is fixed).
  std::function<void(core::FormationProblem&)> tweak;
  /// Instance-size budgets: cells whose problem exceeds them render DNF
  /// without running — the paper's own policy for configurations that "do
  /// not terminate ... and are thus omitted". -1 inherits the spec
  /// default; 0 means unlimited.
  std::int64_t user_cap = -1;
  std::int64_t group_cap = -1;
};

/// The declarative description of one sweep (one figure panel / table).
struct SweepSpec {
  /// Identifier used in JSON ("fig1a"); [a-z0-9_] by convention.
  std::string name;
  /// Human title printed above the table.
  std::string title;
  /// x-axis label ("users", "top-k", ...).
  std::string axis = "x";
  /// x-axis values; one table row each (one column each when size() == 1,
  /// where the table transposes to series-rows × metric-columns).
  std::vector<int> xs;
  /// Required: builds the per-cell problem instance.
  InstanceFactory make_instance;
  /// Explicit series; EMPTY means registry-driven — one series per
  /// `solvers` entry, so a newly registered solver appears in this sweep
  /// with zero spec edits.
  std::vector<SweepSeries> series;
  /// The registry-driven expansion's solver names, in column order;
  /// empty means every registered name in OrderSolversForDisplay order.
  /// Unknown names are kept so typos fail loudly as ERR(NOT_FOUND).
  /// Ignored when `series` is explicit (the CLI's --solvers lands here).
  std::vector<std::string> solvers;
  /// Appended to derived series labels ("-LM-MAX").
  std::string series_suffix;
  /// Per-registry-name option overrides for registry-driven series (e.g.
  /// the scalability benches' truncated-Kendall baseline settings).
  std::map<std::string, core::SolverOptions> solver_options;
  /// Per-registry-name cap overrides for registry-driven series.
  std::map<std::string, std::int64_t> user_caps;
  std::map<std::string, std::int64_t> group_caps;
  /// Defaults for series that do not override (0 = unlimited).
  std::int64_t default_user_cap = 0;
  std::int64_t default_group_cap = 0;
  /// Reported columns per series; empty means {ObjectiveMetric()}.
  std::vector<SweepMetric> metrics;
  /// Runs per cell, averaged in index order ("the average of three
  /// runs"). The GF_BENCH_REPS environment variable overrides this for
  /// every sweep in the process (CI smoke runs use 1); a value that is
  /// not a positive integer fails RunSweep with INVALID_ARGUMENT.
  int repetitions = 1;
  /// When true, make_instance is re-invoked with each repetition index
  /// (fresh dataset per rep, Table 4's random samples); when false (the
  /// default) the repetition-0 instance is generated once per x and
  /// shared, so repetitions only vary the solver seed.
  bool resample_per_repetition = false;
  /// Base solver seed; repetition r uses seed + r * 7919 (the RunRepeated
  /// schedule).
  std::uint64_t seed = core::FormationSolver::kDefaultSeed;
  /// Rows run in parallel on the shared pool (quality sweeps). Timing
  /// sweeps must keep this false so wall clocks are not contended.
  bool parallel_rows = true;
  /// When false, per-cell seconds report as 0 — the mode under which
  /// table and JSON output are byte-identical at every thread count
  /// (wall clock is the one field outside the determinism contract).
  bool record_seconds = true;
};

/// How a cell ended.
enum class SweepCellState {
  kOk,
  /// Did not finish by design: an instance-size cap, or the solver's own
  /// RESOURCE_EXHAUSTED budget. Expected — does not fail the sweep.
  kDnf,
  /// A real failure (NOT_FOUND, INVALID_ARGUMENT, INTERNAL, ...). Renders
  /// ERR(<code>) and makes the sweep's exit code nonzero.
  kErr,
};
const char* SweepCellStateToString(SweepCellState state);

/// One (x, series) cell: status plus repetition-averaged measurements.
struct SweepCell {
  int x = 0;
  std::string solver;
  std::string label;
  SweepCellState state = SweepCellState::kOk;
  /// Why the cell is DNF/ERR; OK for finished cells.
  common::Status status;
  /// Mean objective over repetitions.
  double objective = 0.0;
  /// Mean wall-clock seconds (0 when the spec's record_seconds is off).
  double seconds = 0.0;
  /// Metric values, aligned with the spec's metrics.
  std::vector<double> values;
};

/// A finished sweep: the frozen grid (xs × resolved series × metrics) and
/// its cells in row-major order (all series of xs[0], then xs[1], ...).
struct SweepResult {
  std::string name;
  std::string title;
  std::string axis;
  std::vector<int> xs;
  std::vector<SweepSeries> series;
  std::vector<std::string> metric_labels;
  std::vector<int> metric_precisions;
  int repetitions = 1;
  std::uint64_t seed = 0;
  bool record_seconds = true;
  std::vector<SweepCell> cells;

  const SweepCell& cell(std::size_t row, std::size_t col) const {
    return cells[row * series.size() + col];
  }
  /// True when no cell is ERR (DNF cells are expected omissions).
  bool all_ok() const;
};

/// Expands and executes `spec`. Fails only on a malformed spec (no xs, no
/// instance factory, no resolvable series, repetitions < 1) or a
/// malformed GF_BENCH_REPS; per-cell
/// solver failures are recorded in the cells, never thrown away — the
/// silent -1.00 sentinel of the old benches is gone.
///
/// Determinism: rows are independent pool tasks writing disjoint slots;
/// within a row, series and repetitions run serially in declaration order,
/// so every result field is byte-identical at any thread count.
common::StatusOr<SweepResult> RunSweep(const SweepSpec& spec);

/// Renders the result as the benches' fixed-width table. Multi-x sweeps
/// print one row per x and one column per series × metric; single-x sweeps
/// transpose (one row per series, one column per metric). DNF and
/// ERR(<code>) markers replace values for unfinished cells.
std::string RenderSweepTable(const SweepResult& result);

/// Exit code for a suite of sweeps: 1 when any cell is ERR, else 0.
int SweepSuiteExitCode(const std::vector<SweepResult>& results);

/// Global size multiplier for the benches (GF_BENCH_SCALE; 1 = laptop
/// defaults, the paper's full sizes need roughly 8). 1 when unset;
/// INVALID_ARGUMENT naming the variable when it is set to anything but a
/// positive number.
common::StatusOr<double> BenchScale();

/// n scaled, with a floor.
std::int32_t Scaled(std::int32_t base, double scale,
                    std::int32_t floor = 1);

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_SWEEP_H_
