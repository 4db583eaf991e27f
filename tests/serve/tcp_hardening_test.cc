// Transport hardening for the TCP front-end: a torn connection (recv
// error, not clean EOF) must never execute its half-received tail; a
// client that disconnects mid-stream must stop consuming solver work;
// and an oversize line split across many recvs answers exactly one ERR.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "common/strings.h"
#include "common/thread_pool.h"
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

void SendBytes(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
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

/// A request whose instance seed varies, so each distinct id is a cache
/// miss: cache misses count solver executions.
std::string SeededRequest(const std::string& id, std::uint64_t seed) {
  Request request;
  request.id = id;
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 48;
  request.instance.items = 12;
  request.instance.clusters = 2;
  request.instance.seed = seed;
  request.problem.k = 3;
  request.problem.groups = 8;
  return RenderRequest(request);
}

class TcpHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override { solvers::EnsureBuiltinSolversRegistered(); }
  void TearDown() override {
    common::ThreadPool::SetDefaultThreadCount(0);
  }
};

// Regression test for the torn-connection bug: the reader used to treat
// recv() errors like a clean EOF and then execute the unterminated
// `pending` tail — so a connection reset mid-line executed a request the
// client never finished sending. The tail here is a complete, valid
// request document (only the newline is missing), so the pre-fix server
// solves it (1 cache miss) and the fixed server drops it (0).
TEST_F(TcpHardeningTest, TornConnectionDoesNotExecuteTheHalfReceivedTail) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] {
    const auto serve_status = server.Serve();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  });

  const int fd = ConnectLoopback(server.port());
  const std::string unterminated = SeededRequest("torn", 7);
  SendBytes(fd, unterminated.data(), unterminated.size());  // no '\n'
  // Let the bytes land before tearing the connection down, so the server
  // definitely has the tail buffered when the reset arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // SO_LINGER with zero timeout makes close() send RST: the server's
  // next recv() fails with ECONNRESET instead of returning 0.
  struct linger hard_reset = {1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset,
                         sizeof(hard_reset)),
            0);
  ::close(fd);
  // Give the handler a moment to process the reset before tearing the
  // listener down (Shutdown() then waits the handler out).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server.Shutdown();
  serving.join();
  EXPECT_EQ(session.cache().stats().misses, 0);
  EXPECT_EQ(session.cache().stats().hits, 0);
}

// Clean-EOF control for the test above: the half-close idiom (send an
// unterminated final line, then FIN) still executes the tail — the fix
// must distinguish errors from EOF, not drop both.
TEST_F(TcpHardeningTest, CleanEofStillExecutesTheUnterminatedTail) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] {
    const auto serve_status = server.Serve();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  });

  const int fd = ConnectLoopback(server.port());
  const std::string unterminated = SeededRequest("eof-tail", 7);
  SendBytes(fd, unterminated.data(), unterminated.size());  // no '\n'
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const auto response = ParseResponseLine(ReadLine(fd));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, "eof-tail");
  EXPECT_EQ(response->state, eval::SweepCellState::kOk)
      << response->status;
  ::close(fd);

  server.Shutdown();
  serving.join();
  EXPECT_EQ(session.cache().stats().misses, 1);
}

// Regression test for the discarded-write bug: the writer used to ignore
// SendAll's return value, so a client that disconnected after pipelining
// a burst still had every remaining request solved into a dead socket.
// Forty distinct instances (one cache miss each) make the executed count
// observable: the pre-fix server solves all 40, the fixed one stops as
// soon as a response write fails.
TEST_F(TcpHardeningTest, DisconnectedClientStopsConsumingSolves) {
  common::ThreadPool::SetDefaultThreadCount(2);
  Session session;
  ServerConfig config;
  config.port = 0;
  config.max_inflight = 2;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] {
    const auto serve_status = server.Serve();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  });

  constexpr int kRequests = 40;
  const int fd = ConnectLoopback(server.port());
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += SeededRequest(common::StrFormat("gone-%d", i),
                           static_cast<std::uint64_t>(100 + i));
    burst += '\n';
  }
  SendBytes(fd, burst.data(), burst.size());
  // Disconnect without reading a single response. The responses the
  // server keeps writing hit a closed socket, so a write fails within
  // the first few retirements.
  ::close(fd);

  // Wait (bounded) until the server has demonstrably started executing
  // the burst, so Shutdown() cannot win the race against accept().
  // Shutdown() then blocks until the connection handler finishes, which
  // makes the final miss count exact.
  for (int i = 0; i < 500 && session.cache().stats().misses < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Shutdown();
  serving.join();
  const auto stats = session.cache().stats();
  // At least the first request executes (it was enqueued before any
  // write could fail)...
  EXPECT_GE(stats.misses, 1);
  // ...but nowhere near all of them. Pre-fix this was exactly 40.
  EXPECT_LT(stats.misses, kRequests);
}

// The overflow satellite: a line longer than kMaxRequestLineBytes,
// arriving split across many recv() calls, answers exactly one
// ERR(INVALID_ARGUMENT) line and then the connection closes — no crash,
// no unbounded buffering past the cap, nothing executed.
TEST_F(TcpHardeningTest, OversizeLineAcrossManyRecvsAnswersOneErr) {
  common::ThreadPool::SetDefaultThreadCount(1);
  Session session;
  ServerConfig config;
  config.port = 0;
  TcpServer server(session, config);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] {
    const auto serve_status = server.Serve();
    EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  });

  const int fd = ConnectLoopback(server.port());
  // One byte past the cap, no newline anywhere. 'x' on the first byte
  // rules out the GFB1 magic, so this exercises the JSON wire. The total
  // is exactly cap+1 so the server's overflow trips on the final byte,
  // after everything was consumed — the ERR line then races nothing.
  const std::int64_t total = kMaxRequestLineBytes + 1;
  const std::string chunk(1 << 20, 'x');
  std::int64_t sent = 0;
  while (sent < total) {
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(chunk.size()),
                               total - sent));
    SendBytes(fd, chunk.data(), take);
    sent += static_cast<std::int64_t>(take);
  }
  const auto response = ParseResponseLine(ReadLine(fd));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->state, eval::SweepCellState::kErr);
  EXPECT_EQ(response->status.code(),
            common::StatusCode::kInvalidArgument);
  // Nothing follows the ERR line: the server closed the connection.
  char byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  server.Shutdown();
  serving.join();
  EXPECT_EQ(session.cache().stats().misses, 0);
}

}  // namespace
}  // namespace groupform::serve
