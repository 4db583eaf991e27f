#ifndef GROUPFORM_EVAL_PAPER_SWEEPS_H_
#define GROUPFORM_EVAL_PAPER_SWEEPS_H_

// The catalogue of the paper's evaluation sweeps (§7, Figures 1–6,
// Table 4, plus the repo's own ablation, baseline-panorama, delta and
// constrained suites), run by `groupform_cli sweep SUITE|all`: one
// SweepSuite per figure, each holding the paper-specific instance
// generators and nothing else — solver columns come from the registry at
// run time (DESIGN.md §11).

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/rating_matrix.h"
#include "eval/sweep.h"

namespace groupform::eval {

/// One figure or table: a banner plus the panel specs.
struct SweepSuite {
  /// Suite identifier ("fig1"); names the BENCH_<name>.json document.
  std::string name;
  std::string title;
  std::string paper_ref;
  std::string notes;
  std::vector<SweepSpec> specs;
};

/// Every suite MakePaperSuite accepts, in presentation order.
std::vector<std::string> PaperSuiteNames();

/// Builds the named suite at the current GF_BENCH_SCALE; NOT_FOUND (with
/// the available names) for anything PaperSuiteNames does not list,
/// INVALID_ARGUMENT for a malformed GF_BENCH_SCALE.
common::StatusOr<SweepSuite> MakePaperSuite(const std::string& name);

/// The whole `groupform_cli sweep SUITE` run: builds the suite, restricts
/// its registry-driven specs to `solvers` (empty = every registered
/// solver), prints the banner and one table per sweep, reports every ERR
/// cell on stderr, writes BENCH_<name>.json into `json_dir` unless it is
/// empty, and returns the process exit code (0 clean, 1 when any cell
/// failed or the JSON could not be written, 2 for an unknown suite or a
/// malformed GF_BENCH_SCALE / GF_BENCH_REPS).
int RunPaperSuiteMain(const std::string& name,
                      const std::vector<std::string>& solvers,
                      const std::string& json_dir);

/// Data for the paper's quality experiments (Figures 1–3, Table 4):
/// n users over an m-item subset of a much larger catalogue, sparse
/// enough that users collide on short top-k prefixes (see the Table 4
/// group sizes). Deterministic per (shape, seed).
data::RatingMatrix QualityMatrix(std::int32_t num_users,
                                 std::int32_t num_items,
                                 std::uint64_t seed,
                                 bool movielens_like = false);

/// Prints the standard figure/table banner.
void PrintBenchHeader(const std::string& experiment,
                      const std::string& paper_ref,
                      const std::string& notes);

}  // namespace groupform::eval

#endif  // GROUPFORM_EVAL_PAPER_SWEEPS_H_
