// SolverRegistry semantics: registration, lookup, duplicate rejection,
// option-bag parsing, and end-to-end Solve through a registered stub.
#include "core/solver_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/formation.h"
#include "core/solver.h"
#include "data/synthetic.h"
#include "solvers/builtin.h"

namespace groupform::core {
namespace {

/// A minimal solver: one group holding every user, scored honestly via the
/// problem's scorer — a valid partition for any instance with ell >= 1.
class OneGroupSolver : public FormationSolver {
 public:
  OneGroupSolver(const FormationProblem& problem, double bonus)
      : problem_(problem), bonus_(bonus) {}

  common::StatusOr<FormationResult> Solve(std::uint64_t) const override {
    GF_RETURN_IF_ERROR(problem_.Validate());
    FormedGroup group;
    for (UserId u = 0; u < problem_.matrix->num_users(); ++u) {
      group.members.push_back(u);
    }
    const auto scorer = problem_.MakeScorer();
    group.recommendation = ComputeGroupList(problem_, scorer, group.members);
    group.satisfaction = AggregateListSatisfaction(
        problem_, static_cast<int>(group.members.size()),
        group.recommendation);
    FormationResult result;
    result.algorithm = "one-group-stub";
    result.objective = group.satisfaction + bonus_;
    result.groups.push_back(std::move(group));
    return result;
  }

 private:
  FormationProblem problem_;
  double bonus_;
};

SolverRegistry::Factory StubFactory() {
  return [](const FormationProblem& problem, const SolverOptions& options)
             -> common::StatusOr<std::unique_ptr<FormationSolver>> {
    double bonus = 0.0;
    GF_RETURN_IF_ERROR(options.ReadCheckedDouble("bonus", &bonus));
    return common::StatusOr<std::unique_ptr<FormationSolver>>(
        std::make_unique<OneGroupSolver>(problem, bonus));
  };
}

FormationProblem SmallProblem(const data::RatingMatrix& matrix) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.k = 2;
  problem.max_groups = 3;
  return problem;
}

TEST(SolverRegistry, RegisterLookupCreateSolveUnregister) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(
      registry.Register("one-group-stub", "everyone together", StubFactory())
          .ok());
  EXPECT_TRUE(registry.Contains("one-group-stub"));
  const auto description = registry.Description("one-group-stub");
  ASSERT_TRUE(description.ok());
  EXPECT_EQ(*description, "everyone together");

  const auto matrix =
      data::GenerateUniformDense(8, 5, data::RatingScale{1.0, 5.0}, 11);
  const auto problem = SmallProblem(matrix);
  const auto solver = registry.Create("one-group-stub", problem);
  ASSERT_TRUE(solver.ok()) << solver.status();
  const auto result = (*solver)->Solve(0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(ValidatePartition(problem, *result).ok());

  EXPECT_TRUE(registry.Unregister("one-group-stub"));
  EXPECT_FALSE(registry.Contains("one-group-stub"));
  EXPECT_FALSE(registry.Unregister("one-group-stub"));
}

TEST(SolverRegistry, FactoryReceivesTheOptionBag) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(registry.Register("bonus-stub", "stub", StubFactory()).ok());
  const auto matrix =
      data::GenerateUniformDense(6, 4, data::RatingScale{1.0, 5.0}, 13);
  const auto problem = SmallProblem(matrix);

  const auto plain = registry.Create("bonus-stub", problem);
  ASSERT_TRUE(plain.ok());
  const auto with_bonus = registry.Create(
      "bonus-stub", problem, SolverOptions().Set("bonus", "2.5"));
  ASSERT_TRUE(with_bonus.ok());
  const auto base = (*plain)->Solve(0);
  const auto boosted = (*with_bonus)->Solve(0);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(boosted.ok());
  EXPECT_DOUBLE_EQ(boosted->objective, base->objective + 2.5);
  registry.Unregister("bonus-stub");
}

TEST(SolverRegistry, DuplicateNameIsRejectedFirstRegistrationWins) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(registry.Register("dup-stub", "first", StubFactory()).ok());
  const auto second = registry.Register("dup-stub", "second", StubFactory());
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.code(), common::StatusCode::kFailedPrecondition);
  const auto description = registry.Description("dup-stub");
  ASSERT_TRUE(description.ok());
  EXPECT_EQ(*description, "first");
  registry.Unregister("dup-stub");
}

TEST(SolverRegistry, EmptyNameAndNullFactoryAreInvalid) {
  auto& registry = SolverRegistry::Global();
  EXPECT_EQ(registry.Register("", "x", StubFactory()).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("null-factory", "x", nullptr).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(registry.Contains("null-factory"));
}

TEST(SolverRegistry, UnknownNameListsAvailableSolvers) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(registry.Register("visible-stub", "x", StubFactory()).ok());
  const auto matrix =
      data::GenerateUniformDense(4, 3, data::RatingScale{1.0, 5.0}, 17);
  const auto problem = SmallProblem(matrix);
  const auto missing = registry.Create("no-such-solver", problem);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("visible-stub"),
            std::string::npos);
  registry.Unregister("visible-stub");
}

TEST(SolverRegistry, NamesAreSorted) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(registry.Register("zz-stub", "z", StubFactory()).ok());
  ASSERT_TRUE(registry.Register("aa-stub", "a", StubFactory()).ok());
  const auto names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  registry.Unregister("zz-stub");
  registry.Unregister("aa-stub");
}

/// A factory that strictly validates a non-negative integer knob: a
/// malformed value must fail Create with INVALID_ARGUMENT, not silently
/// keep the default.
SolverRegistry::Factory CheckedFactory() {
  return [](const FormationProblem& problem, const SolverOptions& options)
             -> common::StatusOr<std::unique_ptr<FormationSolver>> {
    GF_ASSIGN_OR_RETURN(const long long budget,
                        options.GetCheckedInt("budget", 1, /*min_value=*/0));
    (void)budget;
    return common::StatusOr<std::unique_ptr<FormationSolver>>(
        std::make_unique<OneGroupSolver>(problem, 0.0));
  };
}

TEST(SolverRegistry, BadKnobValuesFailAtLookupTimeUnknownNamesAreNotFound) {
  auto& registry = SolverRegistry::Global();
  ASSERT_TRUE(
      registry.Register("checked-stub", "strict knobs", CheckedFactory())
          .ok());
  const auto matrix =
      data::GenerateUniformDense(6, 4, data::RatingScale{1.0, 5.0}, 19);
  const auto problem = SmallProblem(matrix);

  // Unknown solver: NOT_FOUND, regardless of options.
  const auto missing = registry.Create(
      "no-such-solver", problem,
      SolverOptions().Set("budget", "true"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), common::StatusCode::kNotFound);

  // Known solver, malformed knob: INVALID_ARGUMENT naming the key.
  const auto garbage = registry.Create(
      "checked-stub", problem,
      SolverOptions().Set("budget", "zebra"));
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(garbage.status().message().find("budget"),
            std::string::npos);

  // Known solver, value below the knob's floor: INVALID_ARGUMENT.
  const auto negative = registry.Create(
      "checked-stub", problem,
      SolverOptions().Set("budget", "-1"));
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), common::StatusCode::kInvalidArgument);

  // Valid and absent values still construct.
  EXPECT_TRUE(registry
                  .Create("checked-stub", problem,
                          SolverOptions().Set("budget", "0"))
                  .ok());
  EXPECT_TRUE(registry.Create("checked-stub", problem).ok());
  registry.Unregister("checked-stub");
}

TEST(SolverOptions, GetCheckedIntValidatesPresentValues) {
  SolverOptions options;
  options.Set("good", "128").Set("bad", "zebra").Set("negative", "-7");
  const auto absent = options.GetCheckedInt("missing", 42, 0);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 42);
  const auto good = options.GetCheckedInt("good", 0, 0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 128);
  EXPECT_EQ(options.GetCheckedInt("bad", 0, 0).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(options.GetCheckedInt("negative", 0, 0).status().code(),
            common::StatusCode::kInvalidArgument);
  // min_value is the caller's floor, not hardcoded zero.
  const auto negative_ok = options.GetCheckedInt("negative", 0, -10);
  ASSERT_TRUE(negative_ok.ok());
  EXPECT_EQ(*negative_ok, -7);
  // max_value is an inclusive ceiling; the default admits any int64.
  options.Set("big", "4294967296");
  EXPECT_EQ(options.GetCheckedInt("big", 0, 0, 4294967295LL).status().code(),
            common::StatusCode::kInvalidArgument);
  const auto at_ceiling = options.GetCheckedInt("big", 0, 0, 4294967296LL);
  ASSERT_TRUE(at_ceiling.ok());
  EXPECT_EQ(*at_ceiling, 4294967296LL);
  EXPECT_TRUE(options.GetCheckedInt("big", 0, 0).ok());
}

TEST(SolverOptions, ReadCheckedIntKeepsTheFieldUnlessAValidValueIsPresent) {
  SolverOptions options;
  options.Set("good", "12").Set("bad", "zebra").Set("wide", "2147483648");
  int field = 7;
  ASSERT_TRUE(options.ReadCheckedInt("missing", 0, &field).ok());
  EXPECT_EQ(field, 7);
  EXPECT_EQ(options.ReadCheckedInt("bad", 0, &field).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(options.ReadCheckedInt("good", 13, &field).code(),
            common::StatusCode::kInvalidArgument);
  // An int field's ceiling is INT_MAX; an int64 field takes the value.
  EXPECT_EQ(options.ReadCheckedInt("wide", 0, &field).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(field, 7);
  ASSERT_TRUE(options.ReadCheckedInt("good", 0, &field).ok());
  EXPECT_EQ(field, 12);
  std::int64_t wide = 0;
  ASSERT_TRUE(options.ReadCheckedInt("wide", 0, &wide).ok());
  EXPECT_EQ(wide, 2147483648LL);
}

TEST(SolverOptions, EveryIntegerSolverKnobIsStrict) {
  solvers::EnsureBuiltinSolversRegistered();
  auto& registry = SolverRegistry::Global();
  const auto matrix =
      data::GenerateUniformDense(6, 5, data::RatingScale{1.0, 5.0}, 23);
  const auto problem = SmallProblem(matrix);
  struct Knob {
    const char* solver;
    const char* key;
    const char* floor;
    const char* too_big;  // one past the field's range
  };
  constexpr const char* kPastInt = "2147483648";
  const std::vector<Knob> knobs = {
      {"localsearch", "max_passes", "0", kPastInt},
      {"localsearch", "swap_samples", "0", kPastInt},
      {"anytime:localsearch", "max_passes", "0", kPastInt},
      {"anytime:localsearch", "swap_samples", "0", kPastInt},
      {"sa", "iterations", "0", kPastInt},
      {"sa", "cooling_interval", "1", kPastInt},
      {"anytime:sa", "iterations", "0", kPastInt},
      {"anytime:sa", "cooling_interval", "1", kPastInt},
      // The subset DP's tables hold 2^max_users entries (DESIGN.md §10.1).
      {"exact", "max_users", "0", "21"},
      // Enumeration grows like the Bell numbers (about 7x per user).
      {"brute", "max_users", "0", "13"},
      {"bnb", "max_users", "0", kPastInt},
      {"bnb", "max_nodes", "0", "9223372036854775808"},
      {"baseline", "max_iterations", "0", kPastInt},
      {"baseline", "medoid_candidates", "0", kPastInt},
      {"baseline", "cache_pairwise_up_to", "0", kPastInt},
      {"baseline", "kendall_truncate", "0", kPastInt},
      {"veckmeans", "max_iterations", "0", kPastInt},
      {"veckmeans", "top_items", "0", kPastInt},
  };
  for (const Knob& knob : knobs) {
    SCOPED_TRACE(std::string(knob.solver) + " " + knob.key);
    const std::string below = std::to_string(std::stoll(knob.floor) - 1);
    for (const std::string& value : {std::string(knob.too_big),
                                    std::string("zebra"), below}) {
      const auto refused = registry.Create(
          knob.solver, problem, SolverOptions().Set(knob.key, value));
      ASSERT_FALSE(refused.ok()) << value;
      EXPECT_EQ(refused.status().code(), common::StatusCode::kInvalidArgument)
          << value;
      EXPECT_NE(refused.status().message().find(knob.key), std::string::npos)
          << refused.status();
    }
    EXPECT_TRUE(registry
                    .Create(knob.solver, problem,
                            SolverOptions().Set(knob.key, knob.floor))
                    .ok());
  }
  EXPECT_TRUE(registry
                  .Create("exact", problem,
                          SolverOptions().Set("max_users", "20"))
                  .ok());
  EXPECT_TRUE(registry
                  .Create("brute", problem,
                          SolverOptions().Set("max_users", "12"))
                  .ok());
}

TEST(SolverOptions, EveryDoubleAndBoolSolverKnobIsStrict) {
  solvers::EnsureBuiltinSolversRegistered();
  auto& registry = SolverRegistry::Global();
  const auto matrix =
      data::GenerateUniformDense(6, 5, data::RatingScale{1.0, 5.0}, 29);
  const auto problem = SmallProblem(matrix);
  struct Knob {
    const char* solver;
    const char* key;
    bool is_bool;
  };
  const std::vector<Knob> knobs = {
      {"localsearch", "use_swaps", true},
      {"localsearch", "init_with_greedy", true},
      {"anytime:localsearch", "use_swaps", true},
      {"anytime:localsearch", "init_with_greedy", true},
      {"sa", "cooling", false},
      {"sa", "swap_fraction", false},
      {"sa", "init_with_greedy", true},
      {"anytime:sa", "cooling", false},
      {"anytime:sa", "swap_fraction", false},
      {"anytime:sa", "init_with_greedy", true},
  };
  const std::vector<std::string> bad_bools = {"nope", "zebra", "yes", "2",
                                              "-1", "0.5"};
  const std::vector<std::string> good_bools = {"true", "false", "1", "0",
                                               ""};
  const std::vector<std::string> bad_doubles = {"zebra", "", "0.5x", "inf",
                                                "-inf", "nan", "1e999"};
  const std::vector<std::string> good_doubles = {"0.5", "1", "-2.5e-3"};
  for (const Knob& knob : knobs) {
    SCOPED_TRACE(std::string(knob.solver) + " " + knob.key);
    for (const std::string& value : knob.is_bool ? bad_bools : bad_doubles) {
      const auto refused = registry.Create(
          knob.solver, problem, SolverOptions().Set(knob.key, value));
      ASSERT_FALSE(refused.ok()) << value;
      EXPECT_EQ(refused.status().code(), common::StatusCode::kInvalidArgument)
          << value;
      EXPECT_NE(refused.status().message().find(knob.key), std::string::npos)
          << refused.status();
    }
    for (const std::string& value :
         knob.is_bool ? good_bools : good_doubles) {
      EXPECT_TRUE(registry
                      .Create(knob.solver, problem,
                              SolverOptions().Set(knob.key, value))
                      .ok())
          << value;
    }
  }
}

TEST(SolverOptions, ReadCheckedDoubleAndBoolKeepTheFieldUnlessValid) {
  SolverOptions options;
  options.Set("dbl", "2.5").Set("flag", "true").Set("off", "0");
  options.Set("bad", "zebra").Set("bare", "").Set("inf", "inf");
  double dbl = 1.0;
  ASSERT_TRUE(options.ReadCheckedDouble("missing", &dbl).ok());
  EXPECT_EQ(dbl, 1.0);
  EXPECT_EQ(options.ReadCheckedDouble("bad", &dbl).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(options.ReadCheckedDouble("inf", &dbl).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(options.ReadCheckedDouble("bare", &dbl).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(dbl, 1.0);
  ASSERT_TRUE(options.ReadCheckedDouble("dbl", &dbl).ok());
  EXPECT_EQ(dbl, 2.5);

  bool flag = false;
  ASSERT_TRUE(options.ReadCheckedBool("missing", &flag).ok());
  EXPECT_FALSE(flag);
  EXPECT_EQ(options.ReadCheckedBool("bad", &flag).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_FALSE(flag);
  ASSERT_TRUE(options.ReadCheckedBool("flag", &flag).ok());
  EXPECT_TRUE(flag);
  ASSERT_TRUE(options.ReadCheckedBool("off", &flag).ok());
  EXPECT_FALSE(flag);
  ASSERT_TRUE(options.ReadCheckedBool("bare", &flag).ok());  // bare = true
  EXPECT_TRUE(flag);
  EXPECT_TRUE(options.Has("dbl"));
  EXPECT_FALSE(options.Has("missing"));
}

}  // namespace
}  // namespace groupform::core
