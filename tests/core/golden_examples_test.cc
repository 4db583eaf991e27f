// Golden tests reproducing every worked example of the paper (Tables 1, 2,
// 5 and the traces in §4, §5 and Appendix B). These pin both the objective
// values and the group compositions the paper reports.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/formation.h"
#include "core/greedy.h"
#include "data/paper_examples.h"
#include "exact/subset_dp.h"
#include "grouprec/semantics.h"

namespace groupform {
namespace {

using core::FormationProblem;
using core::FormationResult;
using grouprec::Aggregation;
using grouprec::Semantics;

// 0-indexed users: paper's u1 is user 0, etc.
using Group = std::set<UserId>;
using Grouping = std::set<Group>;

Grouping GroupingOf(const FormationResult& result) {
  Grouping grouping;
  for (const auto& g : result.groups) {
    grouping.insert(Group(g.members.begin(), g.members.end()));
  }
  return grouping;
}

FormationProblem MakeProblem(const data::RatingMatrix& matrix,
                             Semantics semantics, Aggregation aggregation,
                             int k, int ell) {
  FormationProblem problem;
  problem.matrix = &matrix;
  problem.semantics = semantics;
  problem.aggregation = aggregation;
  problem.k = k;
  problem.max_groups = ell;
  return problem;
}

// ---------------------------------------------------------------------------
// Example 1 (Table 1), GRD-LM-MIN.
// ---------------------------------------------------------------------------

TEST(GoldenExample1, GrdLmMinK1FormsPaperGroupsWithObjective11) {
  const auto matrix = data::PaperExample1();
  const auto problem = MakeProblem(matrix, Semantics::kLeastMisery,
                                   Aggregation::kMin, /*k=*/1, /*ell=*/3);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->objective, 11.0);
  // Paper: {u3,u4} (5), {u2,u6} (5), {u1,u5} (1).
  EXPECT_EQ(GroupingOf(*result),
            (Grouping{{2, 3}, {1, 5}, {0, 4}}));
  EXPECT_TRUE(core::ValidatePartition(problem, *result).ok());
}

TEST(GoldenExample1, GrdLmMinK1IsWithinRmaxOfOptimal12) {
  const auto matrix = data::PaperExample1();
  const auto problem = MakeProblem(matrix, Semantics::kLeastMisery,
                                   Aggregation::kMin, 1, 3);
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok()) << opt.status();
  // Paper: optimal grouping {u1,u3,u4}, {u2,u6}, {u5} with value 12.
  EXPECT_DOUBLE_EQ(opt->objective, 12.0);
  EXPECT_EQ(GroupingOf(*opt), (Grouping{{0, 2, 3}, {1, 5}, {4}}));
}

TEST(GoldenExample1, GrdLmMinK2FormsPaperGroupsWithObjective7) {
  const auto matrix = data::PaperExample1();
  const auto problem = MakeProblem(matrix, Semantics::kLeastMisery,
                                   Aggregation::kMin, 2, 3);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok()) << result.status();
  // Paper: {u1} (3), {u2} (3), {u3,u4,u5,u6} (1); Obj = 7.
  EXPECT_DOUBLE_EQ(result->objective, 7.0);
  EXPECT_EQ(GroupingOf(*result), (Grouping{{0}, {1}, {2, 3, 4, 5}}));
}

// ---------------------------------------------------------------------------
// Example 1, GRD-LM-SUM (§4.2).
// ---------------------------------------------------------------------------

TEST(GoldenExample1, GrdLmSumK2FormsPaperGroupsWithObjective17) {
  const auto matrix = data::PaperExample1();
  const auto problem = MakeProblem(matrix, Semantics::kLeastMisery,
                                   Aggregation::kSum, 2, 3);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok()) << result.status();
  // Paper: {u3,u4} (5+2), {u1,u5,u6} (1+1), {u2} (5+3); total 17.
  EXPECT_DOUBLE_EQ(result->objective, 17.0);
  EXPECT_EQ(GroupingOf(*result), (Grouping{{2, 3}, {0, 4, 5}, {1}}));
}

// ---------------------------------------------------------------------------
// Example 2 (Table 2), GRD-AV-MIN and GRD-AV-SUM (§5).
// ---------------------------------------------------------------------------

TEST(GoldenExample2, GrdAvMinK2FormsPaperGroupsWithObjective13) {
  const auto matrix = data::PaperExample2();
  const auto problem = MakeProblem(matrix, Semantics::kAggregateVoting,
                                   Aggregation::kMin, 2, 2);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok()) << result.status();
  // Paper: {u3,u4} on (i2,i1) with AV 4; {u1,u2,u5,u6} on (i3,i2) with
  // AV 9; objective 13.
  EXPECT_DOUBLE_EQ(result->objective, 13.0);
  EXPECT_EQ(GroupingOf(*result), (Grouping{{2, 3}, {0, 1, 4, 5}}));
  // The first group's recommended list is its shared sequence (i2, i1).
  const auto& first = result->groups[0];
  ASSERT_EQ(first.members, (std::vector<UserId>{2, 3}));
  ASSERT_EQ(first.recommendation.size(), 2);
  EXPECT_EQ(first.recommendation.items[0].item, 1);  // i2
  EXPECT_EQ(first.recommendation.items[1].item, 0);  // i1
}

TEST(GoldenExample2, PaperGroupingScores14ButTrueOptimumIs16) {
  const auto matrix = data::PaperExample2();
  const auto problem = MakeProblem(matrix, Semantics::kAggregateVoting,
                                   Aggregation::kMin, 2, 2);
  // The paper (Appendix A.2) reports {u1,u3,u4} / {u2,u5,u6} with value 14
  // as optimal. Its arithmetic for that grouping is correct...
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  const std::vector<UserId> g1 = {0, 2, 3};
  const std::vector<UserId> g2 = {1, 4, 5};
  const double paper_value =
      grouprec::GroupScorer::AggregateSatisfaction(
          scorer.TopKAllItems(g1, 2), Aggregation::kMin) +
      grouprec::GroupScorer::AggregateSatisfaction(
          scorer.TopKAllItems(g2, 2), Aggregation::kMin);
  EXPECT_DOUBLE_EQ(paper_value, 14.0);
  // ...but the grouping is not optimal: {u1,u3,u4,u6} / {u2,u5} scores
  // 10 + 6 = 16 (verified against the brute-force enumerator in
  // exact_solvers_test). AV-Min rewards folding more voters into the
  // strong group — the same effect the paper itself illustrates with
  // Example 4.
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_DOUBLE_EQ(opt->objective, 16.0);
  EXPECT_EQ(GroupingOf(*opt), (Grouping{{0, 2, 3, 5}, {1, 4}}));
}

TEST(GoldenExample2, GrdAvSumK2ObjectiveIs34) {
  const auto matrix = data::PaperExample2();
  const auto problem = MakeProblem(matrix, Semantics::kAggregateVoting,
                                   Aggregation::kSum, 2, 2);
  const auto result = core::RunGreedy(problem);
  ASSERT_TRUE(result.ok()) << result.status();
  // Paper: same groups as GRD-AV-MIN, objective 14 + 20 = 34.
  EXPECT_DOUBLE_EQ(result->objective, 34.0);
  EXPECT_EQ(GroupingOf(*result), (Grouping{{2, 3}, {0, 1, 4, 5}}));
}

// ---------------------------------------------------------------------------
// Example 3 (§4.1): the group's bottom item differs from every member's
// personal bottom item under LM with k = 2.
// ---------------------------------------------------------------------------

TEST(GoldenExample3, GroupTopTwoLeadsWithItem2AndBottomScore1) {
  const auto matrix = data::PaperExample3();
  grouprec::GroupScorer::Options options;
  options.semantics = Semantics::kLeastMisery;
  const grouprec::GroupScorer scorer(matrix, options);
  const std::vector<UserId> group = {0, 1};
  const auto list = scorer.TopKAllItems(group, 2);
  ASSERT_EQ(list.size(), 2);
  // i2 (index 1) has LM score 4 and leads; every other item has LM 1.
  EXPECT_EQ(list.items[0].item, 1);
  EXPECT_DOUBLE_EQ(list.items[0].score, 4.0);
  EXPECT_DOUBLE_EQ(list.items[1].score, 1.0);
}

// ---------------------------------------------------------------------------
// Example 4 (§5.1): AV can beat the shared-top-k grouping.
// ---------------------------------------------------------------------------

TEST(GoldenExample4, GreedyGets14PaperGrouping15TrueOptimum16) {
  const auto matrix = data::PaperExample4();
  const auto problem = MakeProblem(matrix, Semantics::kAggregateVoting,
                                   Aggregation::kMin, 2, 2);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok()) << grd.status();
  // Shared-top-2 grouping: {u1,u4} (4+2=6) and {u2,u3} (4+4=8).
  EXPECT_DOUBLE_EQ(grd->objective, 14.0);
  EXPECT_EQ(GroupingOf(*grd), (Grouping{{0, 3}, {1, 2}}));

  // The paper's improved grouping {u1,u2,u3} / {u4} scores 13 + 2 = 15...
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  const std::vector<UserId> strong = {0, 1, 2};
  const std::vector<UserId> alone = {3};
  EXPECT_DOUBLE_EQ(grouprec::GroupScorer::AggregateSatisfaction(
                       scorer.TopKAllItems(strong, 2), Aggregation::kMin) +
                       grouprec::GroupScorer::AggregateSatisfaction(
                           scorer.TopKAllItems(alone, 2),
                           Aggregation::kMin),
                   15.0);
  // ...and taking AV's big-group logic to its conclusion, one group of all
  // four users scores min(16, 16) = 16: the true optimum (cross-checked
  // with brute force). The paper stopped one merge short of its own point.
  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_DOUBLE_EQ(opt->objective, 16.0);
  EXPECT_EQ(GroupingOf(*opt), (Grouping{{0, 1, 2, 3}}));
}

// ---------------------------------------------------------------------------
// Example 5 (Table 5, Appendix B): GRD-LM-SUM suboptimality witness.
// ---------------------------------------------------------------------------

TEST(GoldenExample5, GrdLmSumGets20OptimalGets21) {
  const auto matrix = data::PaperExample5();
  const auto problem = MakeProblem(matrix, Semantics::kLeastMisery,
                                   Aggregation::kSum, 2, 3);
  const auto grd = core::RunGreedy(problem);
  ASSERT_TRUE(grd.ok()) << grd.status();
  // Paper: {u2} (5+3), {u3,u4} (5+2), {u1,u5,u6} (3+2); total 20.
  EXPECT_DOUBLE_EQ(grd->objective, 20.0);
  EXPECT_EQ(GroupingOf(*grd), (Grouping{{1}, {2, 3}, {0, 4, 5}}));

  const auto opt = exact::SubsetDpSolver(problem).Solve(0);
  ASSERT_TRUE(opt.ok()) << opt.status();
  // Paper: {u2,u6}, {u3,u4}, {u1,u5} with value 21.
  EXPECT_DOUBLE_EQ(opt->objective, 21.0);
  EXPECT_EQ(GroupingOf(*opt), (Grouping{{1, 5}, {2, 3}, {0, 4}}));
  // Theorem 3: absolute error bounded by k * r_max.
  EXPECT_LE(opt->objective - grd->objective, 2 * 5.0);
}

// ---------------------------------------------------------------------------
// Cross-checks shared by all examples.
// ---------------------------------------------------------------------------

TEST(GoldenExamples, ReportedObjectivesMatchIndependentRecomputation) {
  const auto matrix1 = data::PaperExample1();
  const auto matrix2 = data::PaperExample2();
  const struct {
    const data::RatingMatrix* matrix;
    Semantics semantics;
    Aggregation aggregation;
    int k;
    int ell;
  } cases[] = {
      {&matrix1, Semantics::kLeastMisery, Aggregation::kMin, 1, 3},
      {&matrix1, Semantics::kLeastMisery, Aggregation::kMin, 2, 3},
      {&matrix1, Semantics::kLeastMisery, Aggregation::kSum, 2, 3},
      {&matrix2, Semantics::kAggregateVoting, Aggregation::kMin, 2, 2},
      {&matrix2, Semantics::kAggregateVoting, Aggregation::kSum, 2, 2},
  };
  for (const auto& c : cases) {
    const auto problem =
        MakeProblem(*c.matrix, c.semantics, c.aggregation, c.k, c.ell);
    const auto result = core::RunGreedy(problem);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_NEAR(core::RecomputeObjective(problem, *result),
                result->objective, 1e-9)
        << problem.ToString();
  }
}

}  // namespace
}  // namespace groupform
