#ifndef GROUPFORM_SERVE_CLIENT_H_
#define GROUPFORM_SERVE_CLIENT_H_

// The loopback/LAN client for both serving wires (DESIGN.md §15.3).
// WireClient holds the connection open, speaks either newline-JSON or
// the GFB1 binary frame codec, and does the client half of the credit
// contract: it counts the hello's initial window down on every send and
// back up on every response frame, and CallPipelined blocks for
// responses whenever the balance hits zero. Request and response
// payloads are the canonical JSON documents on both wires, so callers
// can diff responses across wires byte-for-byte.
//
// Not thread-safe: one WireClient per thread, like one socket per
// thread.

#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

namespace groupform::serve {

class WireClient {
 public:
  enum class Wire { kJson, kBinary };

  /// Connects and, on the binary wire, performs the opening handshake:
  /// sends the GFB1 magic and reads the server's hello frame (the
  /// initial credit grant). Fails on connection errors, a missing or
  /// malformed hello, or a hello that is not first on the stream.
  static common::StatusOr<WireClient> Connect(const std::string& host,
                                              int port, Wire wire);

  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  ~WireClient();

  /// One RPC round trip: sends a single request/delta document and
  /// blocks for its response document.
  common::StatusOr<std::string> Call(const std::string& request_line);

  /// Sends the documents as one `groupform.batch/1` envelope (a batch
  /// frame on the binary wire, an ordinary line on JSON) and returns the
  /// unpacked per-request response documents, in request order. The
  /// whole batch costs one credit.
  common::StatusOr<std::vector<std::string>> CallBatch(
      const std::vector<std::string>& request_lines,
      const std::string& batch_id = std::string());

  /// Sends every document as its own request, pipelined: on the binary
  /// wire sends run ahead of responses exactly as far as the credit
  /// balance allows; on JSON the server's max_inflight window applies
  /// via TCP backpressure. Returns one response document per request,
  /// in request order.
  common::StatusOr<std::vector<std::string>> CallPipelined(
      const std::vector<std::string>& request_lines);

  Wire wire() const { return wire_; }
  /// Current credit balance (binary wire; -1 on JSON, which has no
  /// credit accounting).
  int credits() const { return credits_; }
  /// The server's hello (meaningful on the binary wire only).
  const Hello& hello() const { return hello_; }

 private:
  WireClient(int fd, Wire wire) : fd_(fd), wire_(wire) {}

  common::Status SendBytes(const std::string& data);
  /// Reads one '\n'-terminated line (without the terminator).
  common::StatusOr<std::string> ReadLine();
  /// Reads one complete frame, crediting its grant to the balance.
  common::StatusOr<Frame> ReadFrame();
  /// Reads the next response frame, checking its type against the
  /// request shape that was sent.
  common::StatusOr<std::string> ReadResponsePayload(bool expect_batch);

  int fd_ = -1;
  Wire wire_ = Wire::kJson;
  Hello hello_;
  int credits_ = -1;
  std::string inbuf_;
};

}  // namespace groupform::serve

#endif  // GROUPFORM_SERVE_CLIENT_H_
