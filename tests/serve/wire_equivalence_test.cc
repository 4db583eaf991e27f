// Binary ≡ JSON, response-for-response (DESIGN.md §15): the same mixed
// request set — fresh solves, cache hits, include_groups, a second
// solver, deltas, a cap DNF, an unknown-solver ERR — answers
// byte-identical response documents on the newline-JSON wire, the GFB1
// binary wire, and the batch envelope on both, at 1/2/8 threads and
// credit windows 1/16/100. Also pins the client half of the credit
// contract: the balance returns to the hello window once all responses
// are in.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

Request BaseRequest(const std::string& id, std::uint64_t seed) {
  Request request;
  request.id = id;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 8;
  request.instance.items = 5;
  request.instance.clusters = 2;
  request.instance.seed = seed;
  request.problem.k = 2;
  request.problem.groups = 3;
  return request;
}

/// Every response shape the protocol can produce, in one ordered set.
std::vector<std::string> MixedRequestLines() {
  std::vector<std::string> lines;
  lines.push_back(RenderRequest(BaseRequest("fresh", 4)));
  lines.push_back(RenderRequest(BaseRequest("hit", 4)));
  Request groups = BaseRequest("groups", 4);
  groups.include_groups = true;
  lines.push_back(RenderRequest(groups));
  Request local = BaseRequest("local", 4);
  local.solver = "localsearch";
  lines.push_back(RenderRequest(local));
  lines.push_back(RenderRequest(BaseRequest("other", 9)));
  Request capped = BaseRequest("capped", 4);
  capped.user_cap = 4;  // 8 users > cap → DNF
  lines.push_back(RenderRequest(capped));
  Request unknown = BaseRequest("unknown", 4);
  unknown.solver = "no-such-solver";  // → ERR(NOT_FOUND)
  lines.push_back(RenderRequest(unknown));
  Request delta = BaseRequest("delta", 4);
  delta.is_delta = true;
  delta.deltas.push_back(
      {core::PopulationDelta::Kind::kRemoveUser, 3, 0, 0.0});
  lines.push_back(RenderRequest(delta));
  Request delta2 = BaseRequest("delta2", 4);
  delta2.is_delta = true;
  delta2.deltas.push_back(
      {core::PopulationDelta::Kind::kRemoveUser, 3, 0, 0.0});
  delta2.deltas.push_back(
      {core::PopulationDelta::Kind::kRerate, 1, 2, 3.0});
  lines.push_back(RenderRequest(delta2));
  return lines;
}

/// The golden set must actually exercise the whole state vocabulary, or
/// "equivalent" would be vacuous.
void CheckGoldenVariety(const std::vector<std::string>& golden) {
  int ok = 0, dnf = 0, err = 0, deltas = 0, with_groups = 0;
  for (const std::string& line : golden) {
    const auto response = ParseResponseLine(line);
    ASSERT_TRUE(response.ok()) << response.status();
    switch (response->state) {
      case eval::SweepCellState::kOk:
        ++ok;
        break;
      case eval::SweepCellState::kDnf:
        ++dnf;
        break;
      default:
        ++err;
        break;
    }
    if (response->is_delta) ++deltas;
    if (response->has_groups) ++with_groups;
  }
  EXPECT_GE(ok, 5);
  EXPECT_EQ(dnf, 1);
  EXPECT_EQ(err, 1);
  EXPECT_EQ(deltas, 2);
  EXPECT_EQ(with_groups, 1);
}

void ExpectSameLines(const std::vector<std::string>& got,
                     const std::vector<std::string>& golden,
                     const char* path) {
  ASSERT_EQ(got.size(), golden.size()) << path;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(got[i], golden[i]) << path << " response " << i;
  }
}

class WireEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }

  /// One full sweep at a fixed pool size: golden responses from strict
  /// JSON round trips, then every wire × call-shape combination
  /// against one kAuto server per credit window.
  void RunAtThreads(int threads) {
    common::ThreadPool::SetDefaultThreadCount(threads);
    const std::vector<std::string> lines = MixedRequestLines();

    std::vector<std::string> golden;
    {
      Session session;
      ServerConfig config;
      config.port = 0;
      config.max_inflight = 1;  // strictly sequential reference
      TcpServer server(session, config);
      ASSERT_TRUE(server.Start().ok());
      std::thread serving([&] {
    const auto serve_status = server.Serve();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  });
      {
        // Closed before Shutdown(), which drains open connections.
        auto client_or = WireClient::Connect("127.0.0.1", server.port(),
                                             WireClient::Wire::kJson);
        ASSERT_TRUE(client_or.ok()) << client_or.status();
        for (const std::string& line : lines) {
          const auto response = client_or->Call(line);
          ASSERT_TRUE(response.ok()) << response.status();
          golden.push_back(*response);
        }
      }
      server.Shutdown();
      serving.join();
    }
    CheckGoldenVariety(golden);

    for (const int window : {1, 16, 100}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " window=" << window);
      Session session;
      ServerConfig config;
      config.port = 0;
      config.max_inflight = window;  // also the hello's credit window
      TcpServer server(session, config);
      ASSERT_TRUE(server.Start().ok());
      std::thread serving([&] {
    const auto serve_status = server.Serve();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  });

      // Newline-JSON, pipelined then batched, on one connection.
      {
        auto client_or = WireClient::Connect("127.0.0.1", server.port(),
                                             WireClient::Wire::kJson);
        ASSERT_TRUE(client_or.ok()) << client_or.status();
        WireClient client = std::move(*client_or);
        EXPECT_EQ(client.credits(), -1);  // JSON has no credit accounting
        const auto pipelined = client.CallPipelined(lines);
        ASSERT_TRUE(pipelined.ok()) << pipelined.status();
        ExpectSameLines(*pipelined, golden, "json pipelined");
        const auto batched = client.CallBatch(lines, "json-batch");
        ASSERT_TRUE(batched.ok()) << batched.status();
        ExpectSameLines(*batched, golden, "json batch");
      }

      // GFB1 binary, single call + pipelined + batched, one connection.
      {
        auto client_or = WireClient::Connect("127.0.0.1", server.port(),
                                             WireClient::Wire::kBinary);
        ASSERT_TRUE(client_or.ok()) << client_or.status();
        WireClient client = std::move(*client_or);
        EXPECT_EQ(client.hello().credits, window);
        EXPECT_EQ(client.hello().max_frame_bytes, kMaxRequestLineBytes);
        EXPECT_EQ(client.hello().max_batch_requests, kMaxBatchRequests);
        EXPECT_EQ(client.credits(), window);

        const auto single = client.Call(lines[0]);
        ASSERT_TRUE(single.ok()) << single.status();
        EXPECT_EQ(*single, golden[0]);
        EXPECT_EQ(client.credits(), window);  // grant came back

        const auto pipelined = client.CallPipelined(lines);
        ASSERT_TRUE(pipelined.ok()) << pipelined.status();
        ExpectSameLines(*pipelined, golden, "binary pipelined");
        EXPECT_EQ(client.credits(), window);

        const auto batched = client.CallBatch(lines, "bin-batch");
        ASSERT_TRUE(batched.ok()) << batched.status();
        ExpectSameLines(*batched, golden, "binary batch");
        EXPECT_EQ(client.credits(), window);
      }

      server.Shutdown();
      serving.join();
    }
  }
};

TEST_F(WireEquivalenceTest, AllWiresMatchAtOneThread) { RunAtThreads(1); }
TEST_F(WireEquivalenceTest, AllWiresMatchAtTwoThreads) { RunAtThreads(2); }
TEST_F(WireEquivalenceTest, AllWiresMatchAtEightThreads) {
  RunAtThreads(8);
}

}  // namespace
}  // namespace groupform::serve
