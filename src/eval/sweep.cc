#include "eval/sweep.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/solver_registry.h"
#include "solvers/builtin.h"

namespace groupform::eval {

namespace {

std::vector<std::string>& SolverFilter() {
  static auto* filter = new std::vector<std::string>();
  return *filter;
}

/// Comma-separated solver names from GF_SOLVERS; empty when unset.
std::vector<std::string> EnvSolverFilter() {
  const char* value = std::getenv("GF_SOLVERS");
  if (value == nullptr) return {};
  std::vector<std::string> names;
  for (const auto& piece : common::Split(value, ',')) {
    const auto trimmed = common::Trim(piece);
    if (!trimmed.empty()) names.emplace_back(trimmed);
  }
  return names;
}

/// GF_BENCH_REPS overrides every spec's repetitions (CI smoke runs use 1).
int EffectiveRepetitions(int spec_repetitions) {
  const char* value = std::getenv("GF_BENCH_REPS");
  if (value == nullptr) return spec_repetitions;
  long long parsed = 0;
  if (!common::ParseInt64(value, &parsed) || parsed < 1) {
    return spec_repetitions;
  }
  return static_cast<int>(parsed);
}

template <typename Map>
std::int64_t CapFor(const Map& overrides, const std::string& solver,
                    std::int64_t fallback) {
  const auto it = overrides.find(solver);
  return it == overrides.end() ? fallback : it->second;
}

/// Fixes up per-series defaults: derived label, inherited caps.
SweepSeries ResolveSeries(const SweepSpec& spec, SweepSeries series) {
  if (series.label.empty()) {
    series.label = SolverDisplayLabel(series.solver) + spec.series_suffix;
  }
  if (series.user_cap < 0) {
    series.user_cap =
        CapFor(spec.user_caps, series.solver, spec.default_user_cap);
  }
  if (series.group_cap < 0) {
    series.group_cap =
        CapFor(spec.group_caps, series.solver, spec.default_group_cap);
  }
  return series;
}

/// The expanded column list: explicit series, else one per default solver.
std::vector<SweepSeries> ExpandSeries(const SweepSpec& spec) {
  std::vector<SweepSeries> expanded;
  if (!spec.series.empty()) {
    for (const auto& series : spec.series) {
      expanded.push_back(ResolveSeries(spec, series));
    }
    return expanded;
  }
  for (const auto& name : DefaultSweepSolvers()) {
    SweepSeries series;
    series.solver = name;
    const auto it = spec.solver_options.find(name);
    if (it != spec.solver_options.end()) series.options = it->second;
    expanded.push_back(ResolveSeries(spec, std::move(series)));
  }
  return expanded;
}

/// Executes one row. The expensive instance (matrix + problem) is shared
/// by every series, and — unless the spec resamples per repetition —
/// generated once per x and shared across repetitions too, matching the
/// hand-rolled benches this engine replaced (matrix once per x,
/// RunRepeated varying only the seed). Cells accumulate in
/// (series, repetition-index) order — the fixed floating-point order the
/// determinism contract needs. Writes series.size() cells at `cells`.
void RunRow(const SweepSpec& spec, const std::vector<SweepSeries>& series,
            int x, int repetitions, const std::vector<SweepMetric>& metrics,
            SweepCell* cells) {
  for (std::size_t col = 0; col < series.size(); ++col) {
    SweepCell& cell = cells[col];
    cell.x = x;
    cell.solver = series[col].solver;
    cell.label = series[col].label;
    cell.values.assign(metrics.size(), 0.0);
  }
  std::optional<SweepInstance> instance;
  for (int rep = 0; rep < repetitions; ++rep) {
    if (!instance.has_value() || spec.resample_per_repetition) {
      instance.emplace(spec.make_instance(x, rep));
      instance->problem.matrix = instance->matrix.get();
    }
    for (std::size_t col = 0; col < series.size(); ++col) {
      SweepCell& cell = cells[col];
      if (cell.state != SweepCellState::kOk) continue;  // settled
      core::FormationProblem problem = instance->problem;
      if (series[col].tweak) series[col].tweak(problem);
      if ((series[col].user_cap > 0 &&
           instance->matrix->num_users() > series[col].user_cap) ||
          (series[col].group_cap > 0 &&
           problem.max_groups > series[col].group_cap)) {
        cell.state = SweepCellState::kDnf;
        cell.status = common::Status::ResourceExhausted(common::StrFormat(
            "cell exceeds the series budget (users=%d cap=%lld, groups=%d "
            "cap=%lld)",
            instance->matrix->num_users(),
            static_cast<long long>(series[col].user_cap),
            problem.max_groups,
            static_cast<long long>(series[col].group_cap)));
        continue;
      }
      const auto outcome = RunAlgorithmByName(
          series[col].solver, problem,
          spec.seed + static_cast<std::uint64_t>(rep) * 7919,
          series[col].options);
      if (!outcome.ok()) {
        // The solver's own budget (subset DP's max_users, ...) is the
        // paper's "omitted" case; anything else is a genuine failure.
        cell.state = outcome.status().code() ==
                             common::StatusCode::kResourceExhausted
                         ? SweepCellState::kDnf
                         : SweepCellState::kErr;
        cell.status = outcome.status();
        continue;
      }
      cell.objective += outcome->result.objective;
      cell.seconds += outcome->seconds;
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        cell.values[m] += metrics[m].fn(problem, *outcome);
      }
    }
  }
  for (std::size_t col = 0; col < series.size(); ++col) {
    SweepCell& cell = cells[col];
    if (cell.state != SweepCellState::kOk) continue;
    cell.objective /= repetitions;
    cell.seconds /= repetitions;
    for (double& value : cell.values) value /= repetitions;
    if (!spec.record_seconds) {
      cell.seconds = 0.0;
      for (std::size_t m = 0; m < metrics.size(); ++m) {
        if (metrics[m].wall_clock) cell.values[m] = 0.0;
      }
    }
  }
}

std::string CellMarker(const SweepCell& cell) {
  if (cell.state == SweepCellState::kDnf) return "DNF";
  return common::StrFormat(
      "ERR(%s)", common::StatusCodeToString(cell.status.code()));
}

}  // namespace

SweepMetric ObjectiveMetric() {
  return {"objective", 2,
          [](const core::FormationProblem&, const RunOutcome& outcome) {
            return outcome.result.objective;
          }};
}

SweepMetric SecondsMetric() {
  return {"seconds", 3,
          [](const core::FormationProblem&, const RunOutcome& outcome) {
            return outcome.seconds;
          },
          /*wall_clock=*/true};
}

SweepMetric AvgSatPerMemberMetric() {
  return {"avg sat", 2,
          [](const core::FormationProblem&, const RunOutcome& outcome) {
            double total = 0.0;
            for (const auto& group : outcome.result.groups) {
              double sum = 0.0;
              for (const auto& si : group.recommendation.items) {
                sum += si.score;
              }
              total += sum / static_cast<double>(group.members.size());
            }
            const auto groups = outcome.result.groups.empty()
                                    ? 1
                                    : outcome.result.num_groups();
            return total / static_cast<double>(groups);
          }};
}

const char* SweepCellStateToString(SweepCellState state) {
  switch (state) {
    case SweepCellState::kOk:
      return "OK";
    case SweepCellState::kDnf:
      return "DNF";
    case SweepCellState::kErr:
      return "ERR";
  }
  return "?";
}

bool SweepResult::all_ok() const {
  for (const auto& cell : cells) {
    if (cell.state == SweepCellState::kErr) return false;
  }
  return true;
}

std::vector<std::string> DefaultSweepSolvers() {
  solvers::EnsureBuiltinSolversRegistered();
  std::vector<std::string> filter = SolverFilter();
  if (filter.empty()) filter = EnvSolverFilter();
  if (!filter.empty()) return filter;  // typos surface as ERR(NOT_FOUND)
  return OrderSolversForDisplay(core::SolverRegistry::Global().Names());
}

void SetSweepSolverFilter(std::vector<std::string> names) {
  SolverFilter() = std::move(names);
}

common::StatusOr<SweepResult> RunSweep(const SweepSpec& spec) {
  if (spec.xs.empty()) {
    return common::Status::InvalidArgument("sweep '" + spec.name +
                                           "': no x-axis values");
  }
  if (!spec.make_instance) {
    return common::Status::InvalidArgument("sweep '" + spec.name +
                                           "': no instance factory");
  }
  const int repetitions = EffectiveRepetitions(spec.repetitions);
  if (repetitions < 1) {
    return common::Status::InvalidArgument("sweep '" + spec.name +
                                           "': repetitions < 1");
  }
  SweepResult result;
  result.name = spec.name;
  result.title = spec.title;
  result.axis = spec.axis;
  result.xs = spec.xs;
  result.series = ExpandSeries(spec);
  if (result.series.empty()) {
    return common::Status::InvalidArgument(
        "sweep '" + spec.name + "': no series (empty solver registry?)");
  }
  const std::vector<SweepMetric> metrics =
      spec.metrics.empty() ? std::vector<SweepMetric>{ObjectiveMetric()}
                           : spec.metrics;
  for (const auto& metric : metrics) {
    result.metric_labels.push_back(metric.label);
    result.metric_precisions.push_back(metric.precision);
  }
  result.repetitions = repetitions;
  result.seed = spec.seed;
  result.record_seconds = spec.record_seconds;
  result.cells.resize(result.xs.size() * result.series.size());

  // Each row owns a disjoint slice of `cells`; series and repetitions run
  // serially inside the row, so output is identical at every thread count
  // (DESIGN.md §10.3). Timing sweeps keep rows serial too.
  const auto run_row = [&](std::int64_t row) {
    RunRow(spec, result.series, result.xs[static_cast<std::size_t>(row)],
           repetitions, metrics,
           result.cells.data() +
               static_cast<std::size_t>(row) * result.series.size());
  };
  if (spec.parallel_rows) {
    common::ThreadPool::Shared().ParallelFor(
        static_cast<std::int64_t>(result.xs.size()), run_row);
  } else {
    for (std::int64_t row = 0;
         row < static_cast<std::int64_t>(result.xs.size()); ++row) {
      run_row(row);
    }
  }
  return result;
}

std::string RenderSweepTable(const SweepResult& result) {
  const std::size_t num_metrics = result.metric_labels.size();
  const auto cell_text = [&](const SweepCell& cell, std::size_t metric) {
    if (cell.state != SweepCellState::kOk) return CellMarker(cell);
    return common::StrFormat("%.*f", result.metric_precisions[metric],
                             cell.values[metric]);
  };
  if (result.xs.size() == 1) {
    // One x: transpose to series-rows × metric-columns (the "panorama"
    // and Table 4 shape).
    std::vector<std::string> header = {"series"};
    for (const auto& label : result.metric_labels) header.push_back(label);
    common::TablePrinter table(std::move(header));
    for (std::size_t col = 0; col < result.series.size(); ++col) {
      const auto& cell = result.cell(0, col);
      std::vector<std::string> row = {cell.label};
      for (std::size_t m = 0; m < num_metrics; ++m) {
        row.push_back(cell_text(cell, m));
      }
      table.AddRow(std::move(row));
    }
    return table.ToString();
  }
  std::vector<std::string> header = {result.axis};
  for (const auto& series : result.series) {
    for (const auto& label : result.metric_labels) {
      header.push_back(num_metrics == 1 ? series.label
                                        : series.label + " " + label);
    }
  }
  common::TablePrinter table(std::move(header));
  for (std::size_t row = 0; row < result.xs.size(); ++row) {
    std::vector<std::string> fields = {
        common::StrFormat("%d", result.xs[row])};
    for (std::size_t col = 0; col < result.series.size(); ++col) {
      const auto& cell = result.cell(row, col);
      for (std::size_t m = 0; m < num_metrics; ++m) {
        fields.push_back(cell_text(cell, m));
      }
    }
    table.AddRow(std::move(fields));
  }
  return table.ToString();
}

int SweepSuiteExitCode(const std::vector<SweepResult>& results) {
  for (const auto& result : results) {
    if (!result.all_ok()) return 1;
  }
  return 0;
}

double EnvScale(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  double parsed = 0.0;
  if (!common::ParseDouble(value, &parsed) || parsed <= 0.0) {
    return fallback;
  }
  return parsed;
}

double BenchScale() { return EnvScale("GF_BENCH_SCALE", 1.0); }

std::int32_t Scaled(std::int32_t base, double scale, std::int32_t floor) {
  const auto scaled = static_cast<std::int32_t>(base * scale);
  return scaled < floor ? floor : scaled;
}

}  // namespace groupform::eval
