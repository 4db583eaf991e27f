#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "serve/protocol.h"

namespace groupform::serve {
namespace {

using common::Status;

/// The per-stream pipelining window: request lines become ThreadPool jobs
/// immediately, and a dedicated writer thread retires them strictly in
/// request order *as they complete* — a client that waits for each reply
/// before sending the next request (the plain RPC pattern) sees its
/// response even though the reader thread is still blocked reading.
/// Enqueue/Drain belong to the stream's reader thread; only the writer
/// thread calls write_item.
///
/// The first write failure latches: queued solves still retire (so Drain
/// returns and a reader blocked in Enqueue wakes) but nothing further is
/// written, Enqueue refuses new work, and the reader is expected to stop
/// — a disconnected client must not keep consuming solver time
/// (DESIGN.md §12.3).
class PipelinedExecutor {
 public:
  /// One retired response on its way out: the rendered payload plus the
  /// shape the framed wire needs to pick a frame type.
  struct Item {
    std::string payload;
    bool batch = false;
  };

  PipelinedExecutor(LineHandler& handler, int max_inflight,
                    std::function<bool(const Item&)> write_item)
      : handler_(handler),
        // Resolved once: Shared() takes a global lock, which would
        // otherwise serialize every connection's per-request path.
        pool_(common::ThreadPool::Shared()),
        max_inflight_(max_inflight < 1 ? 1 : max_inflight),
        write_item_(std::move(write_item)),
        writer_([this] { WriterLoop(); }) {}

  ~PipelinedExecutor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    writer_.join();
  }

  /// Queues one request line (or batch envelope; `batch` only tags the
  /// response's wire shape — HandleLine dispatches on the payload's own
  /// schema); blocks while the window is full. Returns false without
  /// queueing once a write has failed: the client is gone, so the reader
  /// should stop feeding it.
  bool Enqueue(std::string line, bool batch) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [&] {
        return write_failed_.load(std::memory_order_relaxed) ||
               static_cast<int>(window_.size()) < max_inflight_;
      });
    }
    if (write_failed_.load(std::memory_order_relaxed)) return false;
    auto slot = std::make_shared<Item>();
    slot->batch = batch;
    const auto received = std::chrono::steady_clock::now();
    auto future =
        pool_.Submit([this, slot, line = std::move(line), received] {
          slot->payload = handler_.HandleLine(line, received);
        });
    {
      std::lock_guard<std::mutex> lock(mu_);
      window_.emplace_back(std::move(future), std::move(slot));
      ++served_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until every queued response has been written (or discarded,
  /// after a write failure).
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return window_.empty(); });
  }

  long long served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }

  /// True once any write has failed (EPIPE/ECONNRESET on the socket).
  bool write_failed() const {
    return write_failed_.load(std::memory_order_relaxed);
  }

 private:
  void WriterLoop() {
    for (;;) {
      std::pair<std::future<void>, std::shared_ptr<Item>>* front;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_empty_.wait(lock, [&] { return closed_ || !window_.empty(); });
        if (window_.empty()) {
          if (closed_) return;
          continue;
        }
        // Take the front *reference* under the lock (the front() call
        // itself reads deque internals that Enqueue's emplace_back
        // mutates); the element it names stays valid across the unlock —
        // deque growth never invalidates references, and only this
        // thread pops.
        front = &window_.front();
      }
      try {
        front->first.get();
        if (!write_failed_.load(std::memory_order_relaxed) &&
            !write_item_(*front->second)) {
          write_failed_.store(true, std::memory_order_relaxed);
        }
      } catch (const std::exception& error) {
        // HandleLine never throws, but the one-response-per-request
        // discipline must survive even a broken future.
        Response response;
        response.state = eval::SweepCellState::kErr;
        response.status = Status::Internal(error.what());
        if (!write_failed_.load(std::memory_order_relaxed) &&
            !write_item_(Item{RenderResponse(response), false})) {
          write_failed_.store(true, std::memory_order_relaxed);
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        window_.pop_front();
      }
      not_full_.notify_all();
    }
  }

  LineHandler& handler_;
  common::ThreadPool& pool_;
  const int max_inflight_;
  const std::function<bool(const Item&)> write_item_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  /// Front = oldest in-flight request; popped only after its response
  /// has been written.
  std::deque<std::pair<std::future<void>, std::shared_ptr<Item>>> window_;
  bool closed_ = false;
  long long served_ = 0;
  std::atomic<bool> write_failed_{false};
  /// Declared last: the thread starts in the constructor's init list and
  /// must find every other member already constructed.
  std::thread writer_;
};

/// Strips one trailing '\r' (CRLF clients) and tells whether anything is
/// left to execute.
bool NormalizeLine(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return !line.empty();
}

std::string OversizeLineResponse() {
  Response response;
  response.state = eval::SweepCellState::kErr;
  response.status = Status::InvalidArgument(common::StrFormat(
      "request line exceeds the %lld-byte limit",
      static_cast<long long>(kMaxRequestLineBytes)));
  return RenderResponse(response);
}

/// The one ERR document a broken frame stream is answered with before the
/// connection closes (frame streams cannot resynchronise past a codec
/// error — docs/PROTOCOL.md).
std::string CodecErrorResponse(const std::string& message) {
  Response response;
  response.state = eval::SweepCellState::kErr;
  response.status = Status::InvalidArgument(message);
  return RenderResponse(response);
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

long long ServePipe(LineHandler& handler, std::istream& in, std::ostream& out,
                    int max_inflight) {
  PipelinedExecutor executor(
      handler, max_inflight,
      [&out](const PipelinedExecutor::Item& item) {
        out << item.payload << '\n';
        out.flush();
        return true;  // iostream failure has no disconnect semantics
      });
  std::string line;
  while (std::getline(in, line)) {
    if (!NormalizeLine(line)) continue;
    if (static_cast<std::int64_t>(line.size()) > kMaxRequestLineBytes) {
      executor.Drain();
      out << OversizeLineResponse() << '\n';
      out.flush();
      continue;
    }
    executor.Enqueue(std::move(line), /*batch=*/false);
  }
  executor.Drain();
  return executor.served();
}

TcpServer::TcpServer(LineHandler& handler, ServerConfig config)
    : handler_(handler), config_(config) {}

TcpServer::~TcpServer() {
  Shutdown();
  // Detached connection threads reference *this; they must all be gone
  // before the members are torn down.
  WaitForConnections();
}

common::Status TcpServer::Start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(common::StrFormat("socket: %s",
                                              std::strerror(errno)));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: the server speaks an unauthenticated protocol and is
  // meant to sit behind the host boundary.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::Internal(common::StrFormat(
        "bind(port %d): %s", config_.port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, /*backlog=*/64) < 0) {
    const Status status = Status::Internal(
        common::StrFormat("listen: %s", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }
  listen_fd_.store(fd);
  started_.store(true);
  return Status::Ok();
}

common::Status TcpServer::Serve() {
  const int listen_fd = listen_fd_.load();
  if (listen_fd < 0) {
    // Shutdown() may legitimately land between Start() and the serving
    // thread entering Serve() (a signal right after startup, a test
    // tearing down immediately): that is a clean no-op, not an error.
    if (started_.load()) return Status::Ok();
    return Status::FailedPrecondition("Start() has not succeeded");
  }
  Status status;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int error = errno;
      if (listen_fd_.load() < 0) break;  // Shutdown() closed the listener
      // Transient conditions must not stop a long-lived listener: a
      // client aborting mid-handshake or momentary fd exhaustion both
      // recover by retrying (with a pause in the EMFILE case so the
      // retry is not a hot spin).
      if (error == EINTR || error == ECONNABORTED) continue;
      if (error == EMFILE || error == ENFILE) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      status = Status::Internal(
          common::StrFormat("accept: %s", std::strerror(error)));
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++active_connections_;
    }
    // Detached: finished connections release their own bookkeeping, so
    // days of short-lived connections never accumulate thread handles.
    std::thread([this, fd] {
      HandleConnection(fd);
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (--active_connections_ == 0) conn_cv_.notify_all();
    }).detach();
  }
  WaitForConnections();
  return status;
}

void TcpServer::WaitForConnections() {
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_cv_.wait(lock, [&] { return active_connections_ == 0; });
}

void TcpServer::Shutdown() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() forces a blocked accept() to return even where a bare
    // close() would not; both calls are async-signal-safe.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

void TcpServer::HandleConnection(int fd) {
  // Wire negotiation (DESIGN.md §15.1): a connection whose first four
  // bytes are exactly the GFB1 magic speaks frames; anything else —
  // including any byte that rules the magic out early — is newline-JSON.
  // JSON request lines open with '{' or whitespace, so the sniff never
  // misclassifies a legal JSON client.
  std::string pending;
  char buffer[1 << 16];
  bool binary = false;
  bool recv_error = false;
  bool eof = false;
  for (;;) {
    if (pending.size() >= kFrameMagicBytes) {
      binary =
          std::memcmp(pending.data(), kFrameMagic, kFrameMagicBytes) == 0;
      break;
    }
    if (!pending.empty() &&
        std::memcmp(pending.data(), kFrameMagic, pending.size()) != 0) {
      break;  // can no longer be a magic prefix: JSON
    }
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      recv_error = true;
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    pending.append(buffer, static_cast<std::size_t>(n));
  }
  if (binary) {
    pending.erase(0, kFrameMagicBytes);
    HandleFramedConnection(fd, std::move(pending));
    return;
  }
  HandleJsonConnection(fd, std::move(pending), recv_error, eof);
}

void TcpServer::HandleJsonConnection(int fd, std::string pending,
                                     bool recv_error, bool eof) {
  PipelinedExecutor executor(
      handler_, config_.max_inflight,
      [fd](const PipelinedExecutor::Item& item) {
        return SendAll(fd, item.payload + "\n");
      });
  char buffer[1 << 16];
  bool overflowed = false;
  bool aborted = false;
  // Process-then-recv: the wire sniff may have left whole lines in
  // `pending`, and they must execute before the loop blocks in recv.
  for (;;) {
    // Cursor + one erase per recv: per-line erase(0, …) would memmove
    // the whole remaining buffer for every line of a bulk client.
    std::size_t start = 0;
    std::size_t newline;
    while ((newline = pending.find('\n', start)) != std::string::npos) {
      std::string line = pending.substr(start, newline - start);
      start = newline + 1;
      if (!NormalizeLine(line)) continue;
      if (!executor.Enqueue(std::move(line), /*batch=*/false)) {
        // A write already failed: the client is gone, stop parsing and
        // solving on its behalf.
        aborted = true;
        break;
      }
    }
    pending.erase(0, start);
    if (aborted) break;
    if (static_cast<std::int64_t>(pending.size()) > kMaxRequestLineBytes) {
      // A line that will never fit: answer once and stop reading.
      executor.Drain();
      SendAll(fd, OversizeLineResponse() + "\n");
      overflowed = true;
      break;
    }
    if (recv_error || eof) break;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      // Torn connection (ECONNRESET and friends) — distinct from a clean
      // EOF: whatever is left in `pending` may be a half-received
      // request and must not execute.
      recv_error = true;
      break;
    }
    if (n == 0) {
      eof = true;
      continue;  // one more pass drains any final complete lines
    }
    pending.append(buffer, static_cast<std::size_t>(n));
  }
  // A final unterminated line still counts as a request — but only after
  // a clean EOF (a client that half-closes after its last line). After a
  // transport error the tail is torn, not truncated-on-purpose.
  if (!overflowed && !aborted && !recv_error && NormalizeLine(pending)) {
    executor.Enqueue(std::move(pending), /*batch=*/false);
  }
  executor.Drain();
  ::close(fd);
}

void TcpServer::HandleFramedConnection(int fd, std::string pending) {
  Hello hello;
  hello.credits = config_.max_inflight;
  hello.max_frame_bytes = kMaxRequestLineBytes;
  hello.max_batch_requests = kMaxBatchRequests;
  if (!SendAll(fd, EncodeFrame(FrameType::kHello, 0, RenderHello(hello)))) {
    ::close(fd);
    return;
  }
  // The credit window is the executor window, so a client that
  // over-sends past zero credits degrades to TCP backpressure against
  // the same bound instead of gaining queue depth.
  PipelinedExecutor executor(
      handler_, config_.max_inflight,
      [fd](const PipelinedExecutor::Item& item) {
        // Every retired response hands its window slot back: 1 credit.
        return SendAll(fd, EncodeFrame(item.batch
                                           ? FrameType::kBatchResponse
                                           : FrameType::kResponse,
                                       /*credits=*/1, item.payload));
      });
  char buffer[1 << 16];
  bool done = false;
  while (!done) {
    // Drain every complete frame before blocking in recv.
    std::size_t start = 0;
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const FrameDecodeResult result =
          DecodeFrame(std::string_view(pending).substr(start),
                      static_cast<std::size_t>(kMaxRequestLineBytes),
                      &frame, &consumed, &error);
      if (result == FrameDecodeResult::kNeedMore) break;
      if (result == FrameDecodeResult::kError) {
        // Frame streams cannot resynchronise: answer once, then close.
        executor.Drain();
        SendAll(fd, EncodeFrame(FrameType::kResponse, 0,
                                CodecErrorResponse(error)));
        done = true;
        break;
      }
      start += consumed;
      const bool batch = frame.type == FrameType::kBatchRequest;
      if (frame.type != FrameType::kRequest && !batch) {
        executor.Drain();
        SendAll(fd, EncodeFrame(
                        FrameType::kResponse, 0,
                        CodecErrorResponse(common::StrFormat(
                            "clients may not send frame type %u",
                            static_cast<unsigned>(frame.type)))));
        done = true;
        break;
      }
      if (!executor.Enqueue(std::move(frame.payload), batch)) {
        done = true;  // write failed: the client is gone
        break;
      }
    }
    pending.erase(0, start);
    if (done) break;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EOF or error: a partial frame in `pending` is incomplete by its
      // own header, so — unlike the JSON wire's clean-EOF tail — it is
      // dropped either way, never executed.
      break;
    }
    pending.append(buffer, static_cast<std::size_t>(n));
  }
  executor.Drain();
  ::close(fd);
}

}  // namespace groupform::serve
