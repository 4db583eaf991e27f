// Wire-protocol round trips (docs/PROTOCOL.md): parse ∘ render is the
// identity on canonical lines, malformed input fails with
// INVALID_ARGUMENT, and canonical cache keys distinguish exactly the
// specs that load different matrices.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"
#include "eval/sweep.h"

namespace groupform::serve {
namespace {

Request FullRequest() {
  Request request;
  request.id = "req-7";
  request.solver = "localsearch";
  request.options.Set("max_passes", "10").Set("use_swaps", "0");
  request.instance.kind = "inline";
  request.instance.users = 3;
  request.instance.items = 2;
  request.instance.scale_min = 1.0;
  request.instance.scale_max = 5.0;
  request.instance.ratings = {{0, 0, 5.0}, {0, 1, 1.0}, {1, 0, 3.0},
                              {1, 1, 4.0}, {2, 0, 2.5}};
  request.problem.semantics = "av";
  request.problem.aggregation = "sum";
  request.problem.missing = "zero";
  request.problem.k = 2;
  request.problem.groups = 2;
  request.problem.candidate_depth = 4;
  request.seed = 123;
  request.deadline_ms = 2500;
  request.user_cap = 100;
  request.include_groups = true;
  request.record_seconds = true;
  return request;
}

TEST(Protocol, RequestRoundTripIsIdentity) {
  const std::string canonical = RenderRequest(FullRequest());
  const auto parsed = ParseRequestLine(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(RenderRequest(*parsed), canonical);
}

TEST(Protocol, RequestFieldsSurviveTheRoundTrip) {
  const auto parsed = ParseRequestLine(RenderRequest(FullRequest()));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, "req-7");
  EXPECT_EQ(parsed->solver, "localsearch");
  EXPECT_EQ(parsed->options.entries().at("max_passes"), "10");
  EXPECT_EQ(parsed->options.entries().at("use_swaps"), "0");
  EXPECT_EQ(parsed->instance.kind, "inline");
  ASSERT_EQ(parsed->instance.ratings.size(), 5u);
  EXPECT_EQ(parsed->instance.ratings[4].rating, 2.5);
  EXPECT_EQ(parsed->problem.semantics, "av");
  EXPECT_EQ(parsed->problem.aggregation, "sum");
  EXPECT_EQ(parsed->problem.k, 2);
  EXPECT_EQ(parsed->seed, 123u);
  EXPECT_EQ(parsed->deadline_ms, 2500);
  EXPECT_EQ(parsed->user_cap, 100);
  EXPECT_TRUE(parsed->include_groups);
  EXPECT_TRUE(parsed->record_seconds);
}

TEST(Protocol, SyntheticAndFileInstancesRoundTrip) {
  Request request;
  request.solver = "greedy";
  request.instance.kind = "synthetic";
  request.instance.preset = "movielens";
  request.instance.users = 200;
  request.instance.items = 100;
  request.instance.seed = 7;
  const auto synthetic = ParseRequestLine(RenderRequest(request));
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  EXPECT_EQ(RenderRequest(*synthetic), RenderRequest(request));

  request.instance = InstanceSpec();
  request.instance.kind = "csv";
  request.instance.path = "/data/ratings.csv";
  const auto csv = ParseRequestLine(RenderRequest(request));
  ASSERT_TRUE(csv.ok()) << csv.status();
  EXPECT_EQ(csv->instance.path, "/data/ratings.csv");
  EXPECT_EQ(RenderRequest(*csv), RenderRequest(request));
}

TEST(Protocol, OkResponseRoundTripIsIdentity) {
  Response response;
  response.id = "req-7";
  response.state = eval::SweepCellState::kOk;
  response.solver = "greedy";
  response.objective = 12.75;
  response.num_groups = 2;
  response.metrics.avg_group_satisfaction = 10.5;
  response.metrics.mean_user_rating = 3.25;
  response.metrics.mean_user_ndcg = 0.875;
  response.metrics.fully_satisfied = 0.5;
  response.has_groups = true;
  response.groups = {{0, 2}, {1}};
  response.seconds = 0.125;
  const std::string canonical = RenderResponse(response);
  const auto parsed = ParseResponseLine(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(RenderResponse(*parsed), canonical);
  EXPECT_EQ(parsed->objective, 12.75);
  ASSERT_TRUE(parsed->has_groups);
  EXPECT_EQ(parsed->groups, (std::vector<std::vector<UserId>>{{0, 2}, {1}}));
  EXPECT_EQ(parsed->seconds, 0.125);
}

TEST(Protocol, ErrorResponseRoundTripIsIdentity) {
  Response response;
  response.id = "";
  response.state = eval::SweepCellState::kErr;
  response.status = common::Status::NotFound("no solver named \"nope\"");
  const std::string canonical = RenderResponse(response);
  const auto parsed = ParseResponseLine(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(RenderResponse(*parsed), canonical);
  EXPECT_EQ(parsed->state, eval::SweepCellState::kErr);
  EXPECT_EQ(parsed->status.code(), common::StatusCode::kNotFound);
  EXPECT_EQ(parsed->status.message(), "no solver named \"nope\"");

  response.state = eval::SweepCellState::kDnf;
  response.status = common::Status::ResourceExhausted("over the cap");
  const auto dnf = ParseResponseLine(RenderResponse(response));
  ASSERT_TRUE(dnf.ok()) << dnf.status();
  EXPECT_EQ(dnf->state, eval::SweepCellState::kDnf);
}

TEST(Protocol, EscapedStringsRoundTrip) {
  Request request = FullRequest();
  request.id = "quote\" slash\\ tab\t newline\n control\x01 unicode\xC3\xA9";
  const std::string canonical = RenderRequest(request);
  const auto parsed = ParseRequestLine(canonical);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, request.id);
  EXPECT_EQ(RenderRequest(*parsed), canonical);
}

TEST(Protocol, UnicodeEscapesDecode) {
  const auto parsed = ParseRequestLine(
      R"({"schema":"groupform.request/1","id":"éA😀",)"
      R"("solver":"greedy","instance":{"kind":"dense","users":4,"items":3}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, "\xC3\xA9"
                        "A"
                        "\xF0\x9F\x98\x80");
}

TEST(Protocol, MalformedLinesAreInvalidArgument) {
  for (const std::string line :
       {"", "{", "not json", "42", "[]", "{\"schema\":1}",
        "{\"schema\":\"groupform.request/1\"} trailing",
        R"({"schema":"groupform.request/1"})",          // missing solver
        R"({"schema":"wrong/1","solver":"greedy"})",    // wrong schema
        R"({"schema":"groupform.request/1","solver":"greedy"})",  // no instance
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"warp","users":1,"items":1}})",  // bad kind
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"dense","users":0,"items":3}})",  // users < 1
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"synthetic"}})",  // users/items missing
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"synthetic","users":3000000000,)"
        R"("items":100}})",  // users past INT32_MAX would wrap
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"inline","users":2,"items":2,)"
        R"("ratings":[[1e300,0,3]]}})",  // triplet id not an int32
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"dense","users":2,"items":2},)"
        R"("deadline_ms":9000000000000000})",  // would overflow the clock
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"dense","users":01,"items":2}})",  // not RFC 8259
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"dense","users":2,"items":2},"seed":-1})",
        R"({"schema":"groupform.request/1","solver":"greedy",)"
        R"("instance":{"kind":"dense","users":2,"items":2},)"
        R"("problem":{"semantics":"nope"}})"}) {
    const auto parsed = ParseRequestLine(line);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << line;
    EXPECT_EQ(parsed.status().code(), common::StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(Protocol, UnknownTopLevelKeysAreIgnored) {
  const auto parsed = ParseRequestLine(
      R"({"schema":"groupform.request/1","solver":"greedy","future":[1,2],)"
      R"("instance":{"kind":"dense","users":4,"items":3,"novel":true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->solver, "greedy");
}

TEST(Protocol, OptionValuesCoerceToStrings) {
  const auto parsed = ParseRequestLine(
      R"({"schema":"groupform.request/1","solver":"sa",)"
      R"("options":{"iters":200,"alpha":0.95,"verbose":true,"tag":"x"},)"
      R"("instance":{"kind":"dense","users":4,"items":3}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->options.entries().at("iters"), "200");
  EXPECT_EQ(parsed->options.entries().at("alpha"), "0.95");
  EXPECT_EQ(parsed->options.entries().at("verbose"), "1");
  EXPECT_EQ(parsed->options.entries().at("tag"), "x");
}

TEST(Protocol, CanonicalKeysSeparateInstances) {
  InstanceSpec synthetic;
  synthetic.kind = "synthetic";
  synthetic.preset = "yahoo";
  synthetic.users = 100;
  synthetic.items = 50;
  synthetic.seed = 1;
  InstanceSpec other = synthetic;
  EXPECT_EQ(synthetic.CanonicalKey(), other.CanonicalKey());
  other.seed = 2;
  EXPECT_NE(synthetic.CanonicalKey(), other.CanonicalKey());
  other = synthetic;
  other.preset = "movielens";
  EXPECT_NE(synthetic.CanonicalKey(), other.CanonicalKey());

  InstanceSpec inline_a;
  inline_a.kind = "inline";
  inline_a.users = 2;
  inline_a.items = 2;
  inline_a.ratings = {{0, 0, 5.0}, {1, 1, 3.0}};
  InstanceSpec inline_b = inline_a;
  EXPECT_EQ(inline_a.CanonicalKey(), inline_b.CanonicalKey());
  inline_b.ratings[1].rating = 4.0;
  EXPECT_NE(inline_a.CanonicalKey(), inline_b.CanonicalKey());
}

}  // namespace
}  // namespace groupform::serve
