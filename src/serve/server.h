#ifndef GROUPFORM_SERVE_SERVER_H_
#define GROUPFORM_SERVE_SERVER_H_

// The long-lived serving front-end (DESIGN.md §12.1, §15): requests in,
// one response per request out, in request order. Two transports share
// the same session and protocol code:
//
//   * pipe mode — stdin/stdout (or any iostream pair), the zero-config
//     path CI's serve-smoke job and the golden tests drive;
//   * TCP mode — a loopback/LAN listener with one OS thread per
//     connection.
//
// TCP connections negotiate their wire by magic-sniffing the first bytes
// (DESIGN.md §15.1): a connection opening with "GFB1" speaks the binary
// frame codec with explicit credit-based backpressure (the server grants
// credits in response frames; a well-behaved client stops sending at
// zero, and an over-sending one degrades to TCP backpressure against the
// same window); anything else is the canonical newline-JSON wire. Both
// wires share the per-stream window max_inflight, and both accept single
// `groupform.request/1`/`groupform.delta/1` documents and
// `groupform.batch/1` envelopes.
//
// Either way, each request (or whole batch) becomes one queued job on
// common::ThreadPool::Shared() (Submit): the solve runs serially inside
// its job — the determinism reference path — and throughput comes from
// many jobs in flight at once: a pool of n threads (`--threads n`) solves
// n requests at once, across all connections, and each stream keeps at
// most its window in flight.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>

#include "common/status.h"
#include "serve/line_handler.h"
#include "serve/session.h"

namespace groupform::serve {

/// Transport knobs; the daemons set them from their --port and
/// --max-inflight flags.
struct ServerConfig {
  /// TCP listen port; 0 asks the OS for an ephemeral port (the bound
  /// port is reported by TcpServer::port()).
  int port = 4017;
  /// Requests in flight per stream (pipelining window). 1 = strictly
  /// sequential. Binary-wire clients see it as their credit window: it is
  /// both the client-visible credit budget and the server-side executor
  /// bound, so a client that ignores its credits gains nothing.
  int max_inflight = 4;
};

/// Longest accepted request line; longer lines answer a single
/// ERR(INVALID_ARGUMENT) response (an inline instance of a million
/// ratings fits with room to spare).
inline constexpr std::int64_t kMaxRequestLineBytes = 64ll * 1024 * 1024;

/// Pipe mode: serves `in` until EOF, writing one response line per
/// request line to `out` in request order (responses are flushed as they
/// retire, so a pipelined client sees them stream). Empty lines are
/// ignored. Returns the number of requests served.
long long ServePipe(LineHandler& handler, std::istream& in,
                    std::ostream& out, int max_inflight);

/// TCP mode. Start() binds and listens; Serve() accepts until Shutdown()
/// closes the listener (each connection gets its own thread running the
/// pipe-mode loop over the socket). Shutdown() is safe from a signal
/// handler; in-flight connections drain before Serve() returns.
class TcpServer {
 public:
  TcpServer(LineHandler& handler, ServerConfig config);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  common::Status Start();
  common::Status Serve();
  void Shutdown();

  /// The bound port (differs from config.port when it was 0).
  int port() const { return port_; }

 private:
  void HandleConnection(int fd);
  /// The newline-JSON stream loop. `pending` carries bytes the wire
  /// sniff already consumed; `recv_error`/`eof` say how the sniff ended
  /// when it ended the connection itself.
  void HandleJsonConnection(int fd, std::string pending, bool recv_error,
                            bool eof);
  /// The GFB1 frame loop; `pending` carries bytes read past the magic.
  void HandleFramedConnection(int fd, std::string pending);
  /// Blocks until every connection thread has finished. Connection
  /// threads run detached (a long-lived server must not accumulate
  /// unjoined thread handles); this counter is how Serve() and the
  /// destructor wait them out.
  void WaitForConnections();

  LineHandler& handler_;
  const ServerConfig config_;
  /// Atomic so the signal-handler path of Shutdown() cannot race Serve().
  std::atomic<int> listen_fd_{-1};
  /// Distinguishes "Start() never succeeded" (Serve() is an error) from
  /// "Shutdown() already closed the listener" (Serve() is a clean no-op).
  std::atomic<bool> started_{false};
  int port_ = 0;
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  int active_connections_ = 0;
};

}  // namespace groupform::serve

#endif  // GROUPFORM_SERVE_SERVER_H_
