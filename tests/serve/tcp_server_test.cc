// The TCP transport: an RPC-style client that sends one request and
// waits must receive its response while the connection stays open (the
// writer thread streams retired responses; nothing waits for EOF), an
// ephemeral port binds and reports itself, and Shutdown() unblocks
// Serve() with connections drained, and a two-thread server answers two
// connections' requests at once.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace groupform::serve {
namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

void SendLine(int fd, const std::string& line) {
  const std::string payload = line + "\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
}

/// Blocking read of exactly one '\n'-terminated line.
std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  ADD_FAILURE() << "connection closed before a full line arrived";
  return line;
}

std::string SmallRequest(const std::string& id) {
  Request request;
  request.id = id;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 8;
  request.instance.items = 5;
  request.instance.clusters = 2;
  request.instance.seed = 4;
  request.problem.k = 2;
  request.problem.groups = 3;
  return RenderRequest(request);
}

/// Answers a line only once `parties` calls are inside HandleLine at the
/// same time, or after a deadline; the response says which happened, so
/// a server that handles one request at a time fails instead of hanging.
class RendezvousHandler : public LineHandler {
 public:
  explicit RendezvousHandler(int parties) : parties_(parties) {}

  std::string HandleLine(const std::string& line,
                         std::chrono::steady_clock::time_point) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (++inside_ >= parties_) all_inside_.notify_all();
    const bool met = all_inside_.wait_for(
        lock, std::chrono::seconds(10), [&] { return inside_ >= parties_; });
    return line + (met ? " met" : " alone");
  }

 private:
  const int parties_;
  std::mutex mu_;
  std::condition_variable all_inside_;
  int inside_ = 0;
};

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }
};

TEST_F(TcpServerTest, RpcStyleClientGetsEachResponseWhileConnected) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.max_inflight = 4;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  // One request at a time, waiting for each answer with the write side
  // still open — this hangs forever if responses are only flushed at
  // window-full or EOF.
  for (int i = 0; i < 3; ++i) {
    const std::string id = common::StrFormat("rpc-%d", i);
    SendLine(fd, SmallRequest(id));
    const auto response = ParseResponseLine(ReadLine(fd));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->id, id);
    EXPECT_EQ(response->state, eval::SweepCellState::kOk)
        << response->status;
  }
  ::close(fd);

  server.Shutdown();
  serving.join();
  EXPECT_EQ(session.cache().stats().misses, 1);
  EXPECT_EQ(session.cache().stats().hits, 2);
}

TEST_F(TcpServerTest, PipelinedJsonClientRoundTripsABatch) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });

  {
    // Closed before Shutdown(), which drains open connections.
    auto client = WireClient::Connect("127.0.0.1", server.port(),
                                      WireClient::Wire::kJson);
    ASSERT_TRUE(client.ok()) << client.status();
    const auto responses = client->CallPipelined(
        {SmallRequest("b0"), SmallRequest("b1"), SmallRequest("b2")});
    ASSERT_TRUE(responses.ok()) << responses.status();
    ASSERT_EQ(responses->size(), 3u);
    for (int i = 0; i < 3; ++i) {
      const auto response =
          ParseResponseLine((*responses)[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(response.ok()) << response.status();
      // Responses arrive in request order.
      EXPECT_EQ(response->id, common::StrFormat("b%d", i));
    }
  }

  server.Shutdown();
  serving.join();
}

TEST_F(TcpServerTest, TwoThreadServerHandlesTwoConnectionsAtOnce) {
  // `--threads 2` solves two requests at once: each connection's line is
  // held in HandleLine until the other one arrives there too.
  common::ThreadPool::SetDefaultThreadCount(2);
  RendezvousHandler handler(2);
  ServerConfig config;
  config.port = 0;
  TcpServer server(handler, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });

  const int first = ConnectLoopback(server.port());
  const int second = ConnectLoopback(server.port());
  SendLine(first, "first");
  SendLine(second, "second");
  EXPECT_EQ(ReadLine(first), "first met");
  EXPECT_EQ(ReadLine(second), "second met");
  ::close(first);
  ::close(second);

  server.Shutdown();
  serving.join();
}

TEST_F(TcpServerTest, ShutdownUnblocksServeWithNoConnections) {
  common::ThreadPool::SetDefaultThreadCount(1);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { EXPECT_TRUE(server.Serve().ok()); });
  // Give Serve a moment to block in accept, then stop it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();
  serving.join();
}

}  // namespace
}  // namespace groupform::serve
