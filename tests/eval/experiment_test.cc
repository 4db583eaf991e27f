// Experiment dispatcher: every registered solver runs, is timed, and
// repeats deterministically — dispatch is pure registry lookup by name,
// so a solver registered at runtime is reachable without touching eval/
// or tools/. The paper display labels are pinned against the registry by
// the drift test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "core/solver_registry.h"
#include "data/synthetic.h"
#include "eval/experiment.h"
#include "solvers/builtin.h"

namespace groupform {
namespace {

using core::FormationProblem;

FormationProblem SmallProblem(const data::RatingMatrix& matrix) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = grouprec::Semantics::kLeastMisery;
  problem.aggregation = grouprec::Aggregation::kMin;
  problem.k = 2;
  problem.max_groups = 3;
  return problem;
}

TEST(RunAlgorithmByName, EveryRegisteredSolverRunsOnASmallInstance) {
  // Registry-driven, not enum-driven: a solver registered tomorrow is
  // covered here (and in every sweep) automatically.
  solvers::EnsureBuiltinSolversRegistered();
  const auto matrix = data::GenerateUniformDense(
      10, 6, data::RatingScale{1.0, 5.0}, 31);
  const auto problem = SmallProblem(matrix);
  const auto names = core::SolverRegistry::Global().Names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    const auto outcome = eval::RunAlgorithmByName(name, problem);
    ASSERT_TRUE(outcome.ok()) << name << ": " << outcome.status();
    EXPECT_GE(outcome->seconds, 0.0);
    EXPECT_TRUE(core::ValidatePartition(problem, outcome->result).ok())
        << name;
  }
}

TEST(RunAlgorithmByName, OptimalDominatesGreedyAndLocalSearch) {
  const auto matrix = data::GenerateUniformDense(
      9, 5, data::RatingScale{1.0, 5.0}, 37);
  const auto problem = SmallProblem(matrix);
  const auto grd = eval::RunAlgorithmByName("greedy", problem);
  const auto ls = eval::RunAlgorithmByName("localsearch", problem);
  const auto opt = eval::RunAlgorithmByName("exact", problem);
  ASSERT_TRUE(grd.ok());
  ASSERT_TRUE(ls.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_GE(opt->result.objective, grd->result.objective - 1e-9);
  EXPECT_GE(opt->result.objective, ls->result.objective - 1e-9);
  EXPECT_GE(ls->result.objective, grd->result.objective - 1e-9);
}

TEST(RunRepeated, AveragesOverRepetitions) {
  const auto matrix = data::GenerateUniformDense(
      12, 6, data::RatingScale{1.0, 5.0}, 41);
  const auto problem = SmallProblem(matrix);
  const auto repeated = eval::RunRepeated("greedy", problem, 3);
  ASSERT_TRUE(repeated.ok());
  // Greedy is deterministic, so the mean equals any single run.
  const auto single = eval::RunAlgorithmByName("greedy", problem);
  ASSERT_TRUE(single.ok());
  EXPECT_DOUBLE_EQ(repeated->mean_objective, single->result.objective);
  EXPECT_GT(repeated->mean_seconds, 0.0);
  EXPECT_FALSE(repeated->last_result.groups.empty());
}

TEST(SolverRegistryCoverage, DisplayLabelsMatchThePaperVocabulary) {
  // Every labelled name is a registered solver, and the sweep columns read
  // exactly like the paper (§7 "Algorithms Compared").
  solvers::EnsureBuiltinSolversRegistered();
  const auto& registry = core::SolverRegistry::Global();
  const std::pair<const char*, const char*> kPaperLabels[] = {
      {"greedy", "GRD"},      {"baseline", "Baseline"},
      {"exact", "OPT"},       {"localsearch", "OPT*"},
      {"sa", "SA"},           {"bnb", "BNB"},
      {"veckmeans", "VecKMeans"}, {"brute", "Brute"}};
  for (const auto& [name, label] : kPaperLabels) {
    EXPECT_TRUE(registry.Contains(name)) << name << " is not registered";
    EXPECT_EQ(eval::SolverDisplayLabel(name), label) << name;
  }
  // Unknown names display as themselves (runtime-registered solvers).
  EXPECT_EQ(eval::SolverDisplayLabel("my-new-solver"), "my-new-solver");
}

TEST(SolverRegistryCoverage, DisplayOrderIsPaperFirstThenAlphabetical) {
  const auto ordered = eval::OrderSolversForDisplay(
      {"zeta-solver", "localsearch", "greedy", "alpha-solver", "baseline"});
  const std::vector<std::string> expected = {
      "greedy", "baseline", "localsearch", "alpha-solver", "zeta-solver"};
  EXPECT_EQ(ordered, expected);
}

/// Stub proving the acceptance criterion of the registry refactor: a
/// solver registered from a test — no edits to eval/ or tools/ — is
/// runnable through the experiment harness, and shows up in the Names()
/// list the CLI builds its --algorithm choices and --help text from.
class EveryoneAloneSolver : public core::FormationSolver {
 public:
  explicit EveryoneAloneSolver(const FormationProblem& problem)
      : problem_(problem) {}

  common::StatusOr<core::FormationResult> Solve(
      std::uint64_t) const override {
    GF_RETURN_IF_ERROR(problem_.Validate());
    const auto scorer = problem_.MakeScorer();
    core::FormationResult result;
    result.algorithm = "test-stub";
    const std::int32_t n = problem_.matrix->num_users();
    // Everyone alone while groups remain, then the rest ride together.
    for (UserId u = 0; u < n; ++u) {
      if (result.num_groups() < problem_.max_groups) {
        result.groups.emplace_back();
      }
      result.groups.back().members.push_back(u);
    }
    for (auto& group : result.groups) {
      group.recommendation =
          core::ComputeGroupList(problem_, scorer, group.members);
      group.satisfaction = core::AggregateListSatisfaction(
          problem_, static_cast<int>(group.members.size()),
          group.recommendation);
      result.objective += group.satisfaction;
    }
    return result;
  }

 private:
  FormationProblem problem_;
};

TEST(SolverRegistryCoverage, RuntimeRegisteredStubRunsViaTheHarness) {
  solvers::EnsureBuiltinSolversRegistered();
  auto& registry = core::SolverRegistry::Global();
  ASSERT_TRUE(registry
                  .Register("test-stub", "test-only stub",
                            [](const FormationProblem& problem,
                               const core::SolverOptions&) {
                              return common::StatusOr<
                                  std::unique_ptr<core::FormationSolver>>(
                                  std::make_unique<EveryoneAloneSolver>(
                                      problem));
                            })
                  .ok());

  const auto matrix = data::GenerateUniformDense(
      10, 6, data::RatingScale{1.0, 5.0}, 53);
  const auto problem = SmallProblem(matrix);

  // Reachable from the eval surface (RunAlgorithmByName + RunRepeated)...
  const auto outcome = eval::RunAlgorithmByName("test-stub", problem);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->result.algorithm, "test-stub");
  EXPECT_TRUE(core::ValidatePartition(problem, outcome->result).ok());
  const auto repeated = eval::RunRepeated("test-stub", problem, 2);
  ASSERT_TRUE(repeated.ok()) << repeated.status();
  EXPECT_DOUBLE_EQ(repeated->mean_objective, outcome->result.objective);

  // ...and from the list the CLI derives its --algorithm choices from.
  const auto names = registry.Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test-stub"),
            names.end());

  registry.Unregister("test-stub");
}

TEST(RunAlgorithmByName, UnknownSolverIsNotFoundAndListsChoices) {
  const auto matrix = data::GenerateUniformDense(
      6, 4, data::RatingScale{1.0, 5.0}, 59);
  const auto problem = SmallProblem(matrix);
  const auto outcome = eval::RunAlgorithmByName("no-such-solver", problem);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), common::StatusCode::kNotFound);
  EXPECT_NE(outcome.status().message().find("greedy"), std::string::npos);
}

TEST(RunAlgorithmByName, SolverOptionsReachTheFactory) {
  const auto matrix = data::GenerateUniformDense(
      12, 6, data::RatingScale{1.0, 5.0}, 61);
  const auto problem = SmallProblem(matrix);
  // Cap subset DP below the instance size: the option must flow through.
  const auto capped = eval::RunAlgorithmByName(
      "exact", problem, core::FormationSolver::kDefaultSeed,
      core::SolverOptions().Set("max_users", "4"));
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(),
            common::StatusCode::kResourceExhausted);
}

TEST(RunAlgorithmByName, SolverLadderOrdersAsExpected) {
  // On a small instance the quality ladder must hold: exact solvers at the
  // top, refiners at least at the greedy seed.
  const auto matrix = data::GenerateUniformDense(
      10, 5, data::RatingScale{1.0, 5.0}, 43);
  const auto problem = SmallProblem(matrix);
  const auto value = [&](const std::string& name) {
    const auto outcome = eval::RunAlgorithmByName(name, problem);
    EXPECT_TRUE(outcome.ok()) << name;
    return outcome.ok() ? outcome->result.objective : -1.0;
  };
  const double grd = value("greedy");
  const double opt = value("exact");
  const double bnb = value("bnb");
  const double ls = value("localsearch");
  const double sa = value("sa");
  EXPECT_NEAR(bnb, opt, 1e-9);
  EXPECT_GE(ls, grd - 1e-9);
  EXPECT_GE(sa, grd - 1e-9);
  EXPECT_LE(ls, opt + 1e-9);
  EXPECT_LE(sa, opt + 1e-9);
}

}  // namespace
}  // namespace groupform
