// Constraints and anytime partial results on the serving wire
// (DESIGN.md §17, docs/PROTOCOL.md "constraints"): well-formed
// constraint-bearing requests round-trip canonically and answer
// partitions that honour the spec; malformed constraints JSON answers
// ERR(INVALID_ARGUMENT) naming the field; an expired deadline turns
// into a partial=true OK for "anytime:" solvers where a plain solver
// answers DNF.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

/// A small dense-synthetic request the whole file shares: 12 users into
/// at most 4 groups.
Request BaseRequest(const std::string& id, const std::string& solver) {
  Request request;
  request.id = id;
  request.solver = solver;
  request.instance.kind = "dense";
  request.instance.users = 12;
  request.instance.items = 6;
  request.instance.clusters = 2;
  request.instance.seed = 7;
  request.problem.k = 3;
  request.problem.groups = 4;
  return request;
}

core::ConstraintSpec FullSpec() {
  core::ConstraintSpec spec;
  spec.min_group_size = 2;
  spec.max_group_size = 4;
  spec.must_link.push_back({0, 1});
  spec.cannot_link.push_back({2, 3});
  return spec;
}

class ConstrainedServeTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }

  Response Answer(const Request& request) {
    const std::string line = session_.HandleLine(RenderRequest(request));
    const auto response = ParseResponseLine(line);
    EXPECT_TRUE(response.ok()) << response.status() << "\n" << line;
    return response.ok() ? *response : Response();
  }

  void ExpectInvalid(const std::string& line, const std::string& needle) {
    const std::string rendered = session_.HandleLine(line);
    const auto response = ParseResponseLine(rendered);
    ASSERT_TRUE(response.ok()) << response.status() << "\n" << rendered;
    EXPECT_EQ(response->state, eval::SweepCellState::kErr) << rendered;
    EXPECT_EQ(response->status.code(),
              common::StatusCode::kInvalidArgument)
        << rendered;
    EXPECT_NE(response->status.message().find(needle), std::string::npos)
        << "wanted \"" << needle << "\" in: " << response->status.message();
  }

  Session session_;
};

TEST_F(ConstrainedServeTest, ConstraintsRoundTripCanonically) {
  Request request = BaseRequest("rt", "pairgreedy");
  request.problem.constraints = FullSpec();
  request.problem.constraints.has_min_user_sat = true;
  request.problem.constraints.min_user_sat = 2.5;
  const std::string line = RenderRequest(request);
  const auto parsed = ParseRequestLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(RenderRequest(*parsed), line);
  EXPECT_EQ(parsed->problem.constraints.ToString(),
            request.problem.constraints.ToString());
  // The empty spec is invisible on the wire (PR-9 goldens stay intact).
  EXPECT_EQ(RenderRequest(BaseRequest("rt", "greedy"))
                .find("constraints"),
            std::string::npos);
}

TEST_F(ConstrainedServeTest, CapGreedyAnswersAPartitionWithinBounds) {
  Request request = BaseRequest("cap", "capgreedy");
  request.problem.constraints.min_group_size = 2;
  request.problem.constraints.max_group_size = 4;
  request.include_groups = true;
  const Response response = Answer(request);
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  EXPECT_EQ(response.solver, "capgreedy");
  ASSERT_TRUE(response.has_groups);
  for (const auto& group : response.groups) {
    EXPECT_GE(group.size(), 2u);
    EXPECT_LE(group.size(), 4u);
  }
  EXPECT_FALSE(response.partial);
  EXPECT_EQ(response.floor_violations, 0);
}

TEST_F(ConstrainedServeTest, MemoKeyDistinguishesConstraintSpecs) {
  // Same instance + solver, different caps: a memo collision would hand
  // the second request the first partition, violating its tighter cap.
  Request loose = BaseRequest("memo", "capgreedy");
  loose.problem.constraints.max_group_size = 6;
  loose.include_groups = true;
  Request tight = loose;
  tight.problem.constraints.max_group_size = 3;
  const Response first = Answer(loose);
  const Response second = Answer(tight);
  ASSERT_EQ(first.state, eval::SweepCellState::kOk) << first.status;
  ASSERT_EQ(second.state, eval::SweepCellState::kOk) << second.status;
  for (const auto& group : second.groups) {
    EXPECT_LE(group.size(), 3u);
  }
}

TEST_F(ConstrainedServeTest, UnsupportedSpecPartsAnswerErr) {
  Request request = BaseRequest("unsup", "capgreedy");
  request.problem.constraints = FullSpec();  // links: not capgreedy's job
  const Response response = Answer(request);
  EXPECT_EQ(response.state, eval::SweepCellState::kErr);
  EXPECT_EQ(response.status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(
      response.status.message().find("capgreedy supports size bounds only"),
      std::string::npos)
      << response.status.message();
}

TEST_F(ConstrainedServeTest, MalformedConstraintsJsonAnswersErr) {
  Request request = BaseRequest("bad", "pairgreedy");
  request.problem.constraints = FullSpec();
  const std::string valid = RenderRequest(request);
  // Splice into the rendered tokens so everything else stays well-formed.
  const auto with = [&](const std::string& token,
                        const std::string& replacement) {
    std::string line = valid;
    const auto at = line.find(token);
    EXPECT_NE(at, std::string::npos) << token << " not in: " << valid;
    if (at != std::string::npos) {
      line.replace(at, token.size(), replacement);
    }
    return line;
  };
  // Wrong pair arity / shape.
  ExpectInvalid(with("\"must_link\":[[0,1]]", "\"must_link\":[[0]]"),
                "two-element");
  ExpectInvalid(with("\"must_link\":[[0,1]]", "\"must_link\":[0,1]"),
                "must_link");
  // Structurally invalid specs fail at parse time, before any solve.
  ExpectInvalid(with("\"must_link\":[[0,1]]", "\"must_link\":[[1,1]]"),
                "links a user to itself");
  ExpectInvalid(with("\"cannot_link\":[[2,3]]", "\"cannot_link\":[[0,1]]"),
                "both must_link and cannot_link");
  ExpectInvalid(with("\"min_group_size\":2", "\"min_group_size\":0"),
                "min_group_size");
  ExpectInvalid(with("\"max_group_size\":4", "\"max_group_size\":1"),
                "below min_group_size");
  // Out-of-population link ids fail at execution with the same code.
  ExpectInvalid(with("\"cannot_link\":[[2,3]]", "\"cannot_link\":[[2,99]]"),
                "outside the population");
}

TEST_F(ConstrainedServeTest, ZeroBudgetOptionAnswersPartialOk) {
  Request request = BaseRequest("part", "anytime:localsearch");
  request.options.Set("deadline_ms", "0");
  const std::string line = session_.HandleLine(RenderRequest(request));
  const auto response = ParseResponseLine(line);
  ASSERT_TRUE(response.ok()) << response.status() << "\n" << line;
  ASSERT_EQ(response->state, eval::SweepCellState::kOk)
      << response->status;
  EXPECT_TRUE(response->partial) << line;
  EXPECT_NE(line.find("\"partial\":true"), std::string::npos) << line;
  // parse ∘ render is the identity on partial responses too.
  EXPECT_EQ(RenderResponse(*response), line);
}

TEST_F(ConstrainedServeTest, ExpiredDeadlineMapsByFailurePolicy) {
  // The same expired request deadline: DNF for a plain solver (work
  // declined by policy, DESIGN.md §12), partial=true OK for its anytime
  // sibling (zero remaining budget injected as deadline_ms).
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::seconds(30);
  Request plain = BaseRequest("plain", "localsearch");
  plain.deadline_ms = 5;
  const Response declined = session_.Execute(plain, past);
  EXPECT_EQ(declined.state, eval::SweepCellState::kDnf) << declined.status;

  Request anytime = BaseRequest("any", "anytime:localsearch");
  anytime.deadline_ms = 5;
  const Response partial = session_.Execute(anytime, past);
  ASSERT_EQ(partial.state, eval::SweepCellState::kOk) << partial.status;
  EXPECT_TRUE(partial.partial);
  EXPECT_EQ(partial.solver, "anytime:localsearch");
  EXPECT_GT(partial.num_groups, 0);

  // A delta request takes the same path and gets the same answers.
  const core::PopulationDelta remove = {
      core::PopulationDelta::Kind::kRemoveUser, 5};
  plain.is_delta = true;
  plain.deltas.push_back(remove);
  const Response declined_delta = session_.Execute(plain, past);
  EXPECT_EQ(declined_delta.state, eval::SweepCellState::kDnf)
      << declined_delta.status;

  anytime.is_delta = true;
  anytime.deltas.push_back(remove);
  const Response partial_delta = session_.Execute(anytime, past);
  ASSERT_EQ(partial_delta.state, eval::SweepCellState::kOk)
      << partial_delta.status;
  EXPECT_TRUE(partial_delta.partial);
  EXPECT_FALSE(partial_delta.epoch.empty());
  EXPECT_GT(partial_delta.num_groups, 0);

  // Partial solves stay out of the solution memo: the same delta without
  // a deadline is solved to completion.
  anytime.deadline_ms = 0;
  const Response complete_delta = session_.Execute(anytime);
  ASSERT_EQ(complete_delta.state, eval::SweepCellState::kOk)
      << complete_delta.status;
  EXPECT_FALSE(complete_delta.partial);
}

TEST_F(ConstrainedServeTest, ClientDeadlineOptionWinsOverInjection) {
  // A client-set deadline_ms option is forwarded untouched even when the
  // request-level deadline has room left: the response is the same
  // partial greedy-seed snapshot as the zero-budget case.
  Request request = BaseRequest("win", "anytime:localsearch");
  request.deadline_ms = 60000;
  request.options.Set("deadline_ms", "0");
  const Response response = session_.Execute(request);
  ASSERT_EQ(response.state, eval::SweepCellState::kOk) << response.status;
  EXPECT_TRUE(response.partial);
}

TEST_F(ConstrainedServeTest, DeltaRequestsCarryConstraintsToo) {
  Request request = BaseRequest("delta", "capgreedy");
  request.is_delta = true;
  request.deltas.push_back(
      {core::PopulationDelta::Kind::kRemoveUser, 5});
  request.problem.constraints.max_group_size = 4;
  request.include_groups = true;
  const std::string line = session_.HandleLine(RenderRequest(request));
  const auto response = ParseResponseLine(line);
  ASSERT_TRUE(response.ok()) << response.status() << "\n" << line;
  ASSERT_EQ(response->state, eval::SweepCellState::kOk)
      << response->status;
  EXPECT_FALSE(response->epoch.empty());
  for (const auto& group : response->groups) {
    EXPECT_LE(group.size(), 4u);
  }
}

}  // namespace
}  // namespace groupform::serve
