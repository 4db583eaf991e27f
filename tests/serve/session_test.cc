// Session execution semantics (DESIGN.md §12.2): OK requests match the
// in-process eval path, unknown solvers are ERR(NOT_FOUND), bad options
// are ERR(INVALID_ARGUMENT) via the factories' strict validation, caps
// and expired deadlines are DNF, and parse failures still produce a
// response line.
#include "serve/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "eval/experiment.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

/// A small deterministic instance every registered solver handles fast.
InstanceSpec TestInstance() {
  InstanceSpec spec;
  spec.kind = "dense";
  spec.users = 12;
  spec.items = 8;
  spec.clusters = 3;
  spec.seed = 5;
  return spec;
}

Request TestRequest(const std::string& solver) {
  Request request;
  request.id = "t";
  request.solver = solver;
  request.instance = TestInstance();
  request.problem.k = 3;
  request.problem.groups = 4;
  return request;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
};

TEST_F(SessionTest, OkRequestMatchesTheInProcessEvalPath) {
  Session session;
  const Request request = TestRequest("greedy");
  const Response response = session.Execute(request);
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  EXPECT_EQ(response.id, "t");
  EXPECT_EQ(response.solver, "greedy");

  // The same instance and problem through the eval layer directly.
  const auto matrix = BuildInstance(request.instance);
  ASSERT_TRUE(matrix.ok());
  core::FormationProblem problem;
  problem.matrix = &*matrix;
  problem.k = 3;
  problem.max_groups = 4;
  const auto direct =
      eval::RunAlgorithmByName("greedy", problem, request.seed);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(response.objective, direct->result.objective);  // bitwise
  EXPECT_EQ(response.num_groups, direct->result.num_groups());
}

TEST_F(SessionTest, UnknownSolverIsErrNotFound) {
  Session session;
  const Response response = session.Execute(TestRequest("warpdrive"));
  EXPECT_EQ(response.state, eval::SweepCellState::kErr);
  EXPECT_EQ(response.status.code(), common::StatusCode::kNotFound);
  // The message lists the available solvers, as the CLI does.
  EXPECT_NE(response.status.message().find("greedy"), std::string::npos);
}

TEST_F(SessionTest, BadSolverOptionIsErrInvalidArgument) {
  Session session;
  Request request = TestRequest("localsearch");
  // shard_min_items is one of the strictly validated knobs: a
  // non-numeric override fails SolverRegistry::Create.
  request.options.Set("shard_min_items", "banana");
  const Response response = session.Execute(request);
  EXPECT_EQ(response.state, eval::SweepCellState::kErr);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, UserCapAnswersDnfWithoutRunning) {
  Session session;
  Request request = TestRequest("greedy");
  request.user_cap = 5;  // instance has 12 users
  const Response response = session.Execute(request);
  EXPECT_EQ(response.state, eval::SweepCellState::kDnf);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kResourceExhausted);

  // The server-wide default cap applies when the request sets none.
  SessionConfig config;
  config.default_user_cap = 5;
  Session capped(config);
  const Response capped_response = capped.Execute(TestRequest("greedy"));
  EXPECT_EQ(capped_response.state, eval::SweepCellState::kDnf);

  // A request cap above the instance size runs normally.
  request.user_cap = 100;
  EXPECT_EQ(session.Execute(request).state, eval::SweepCellState::kOk);
}

TEST_F(SessionTest, ExpiredDeadlineAnswersDnfBeforeExecuting) {
  Session session;
  Request request = TestRequest("greedy");
  request.deadline_ms = 1;
  // Stamp the request as received long ago: the deadline has passed
  // before execution starts, deterministically.
  const auto long_ago =
      std::chrono::steady_clock::now() - std::chrono::seconds(10);
  const Response response = session.Execute(request, long_ago);
  EXPECT_EQ(response.state, eval::SweepCellState::kDnf);
  EXPECT_EQ(response.status.code(),
            common::StatusCode::kResourceExhausted);
}

TEST_F(SessionTest, IncludeGroupsReturnsTheFullPartition) {
  Session session;
  Request request = TestRequest("greedy");
  request.include_groups = true;
  const Response response = session.Execute(request);
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  ASSERT_TRUE(response.has_groups);
  EXPECT_EQ(static_cast<int>(response.groups.size()),
            response.num_groups);
  // Disjoint cover of all 12 users.
  std::vector<UserId> all;
  for (const auto& group : response.groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 12u);
  for (UserId u = 0; u < 12; ++u) EXPECT_EQ(all[static_cast<size_t>(u)], u);
}

TEST_F(SessionTest, SecondsAppearOnlyWhenRequested) {
  Session session;
  Request request = TestRequest("greedy");
  const Response without = session.Execute(request);
  EXPECT_LT(without.seconds, 0.0);  // omitted from the rendered line
  EXPECT_EQ(RenderResponse(without).find("seconds"), std::string::npos);
  request.record_seconds = true;
  const Response with = session.Execute(request);
  EXPECT_GE(with.seconds, 0.0);
  EXPECT_NE(RenderResponse(with).find("\"seconds\":"), std::string::npos);
}

TEST_F(SessionTest, RequestsShareTheCachedInstance) {
  Session session;
  for (int i = 0; i < 5; ++i) {
    Request request = TestRequest("greedy");
    request.seed = static_cast<std::uint64_t>(100 + i);
    ASSERT_EQ(session.Execute(request).state, eval::SweepCellState::kOk);
  }
  const auto stats = session.cache().stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 4);
}

TEST_F(SessionTest, HandleLineAlwaysAnswersOneResponseLine) {
  Session session;
  const std::string ok_line =
      session.HandleLine(RenderRequest(TestRequest("greedy")));
  const auto ok = ParseResponseLine(ok_line);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->state, eval::SweepCellState::kOk);

  const std::string bad_line = session.HandleLine("this is not json");
  const auto bad = ParseResponseLine(bad_line);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->state, eval::SweepCellState::kErr);
  EXPECT_EQ(bad->status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad->id, "");
}

TEST_F(SessionTest, ErrorLinesEchoTheRequestId) {
  Session session;
  // Unknown schema, a missing required field, and a line of the removed
  // shard verb: each answers ERR(INVALID_ARGUMENT) under the id the client
  // sent. A non-string id is not echoed.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{\"schema\":\"nope/9\",\"id\":\"q2\"}", "q2"},
      {"{\"schema\":\"groupform.request/1\",\"id\":\"q3\"}", "q3"},
      {"{\"schema\":\"groupform.shard/1\",\"id\":\"q4\"}", "q4"},
      {"{\"schema\":\"nope/9\",\"id\":7}", ""},
  };
  for (const auto& [line, id] : cases) {
    const auto response = ParseResponseLine(session.HandleLine(line));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->state, eval::SweepCellState::kErr) << line;
    EXPECT_EQ(response->status.code(), common::StatusCode::kInvalidArgument)
        << line;
    EXPECT_EQ(response->id, id) << line;
  }
}

TEST_F(SessionTest, ProblemKnobsReachTheSolver) {
  Session session;
  Request request = TestRequest("greedy");
  request.problem.semantics = "av";
  request.problem.aggregation = "sum";
  request.problem.k = 2;
  const Response av = session.Execute(request);
  ASSERT_EQ(av.state, eval::SweepCellState::kOk) << av.status;
  const Response lm = session.Execute(TestRequest("greedy"));
  ASSERT_EQ(lm.state, eval::SweepCellState::kOk) << lm.status;
  // Different semantics/aggregation/k must not produce the same envelope.
  EXPECT_NE(RenderResponse(av), RenderResponse(lm));
}

}  // namespace
}  // namespace groupform::serve
