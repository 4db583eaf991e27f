#ifndef GROUPFORM_FLEET_BROKER_H_
#define GROUPFORM_FLEET_BROKER_H_

// The broker session (DESIGN.md §16): a serve::LineHandler that fronts a
// fleet of groupform_serverd workers. It plugs into the *same*
// transports as a single-process session — ServePipe, TcpServer, both
// wires — so a client cannot tell a broker from a worker by bytes alone
// (the broker-transparency contract, pinned by the fleet equivalence
// tests).
//
// Routing is instance affinity: each request forwards, verbatim, to the
// worker that consistent-hashing assigns its instance cache key. Workers
// answer from their own caches; the fleet's aggregate cache is the sum
// of the workers' (the memory-split mode). The worker's response
// document returns to the client verbatim. The broker holds no instances
// and runs no solver itself.
//
// Failure policy, per request: a failed worker call retries once on a
// fresh connection after a bounded backoff; still failing, the request
// answers ERR(UNAVAILABLE) — the stream never hangs, and other requests
// (other workers) are unaffected.

#include <chrono>
#include <string>

#include "common/status.h"
#include "fleet/hash_ring.h"
#include "fleet/transport.h"
#include "serve/line_handler.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace groupform::fleet {

struct BrokerConfig {
  /// Re-attempts after a failed worker call (on a fresh connection).
  int retries = 1;
  /// Pause before each re-attempt.
  int backoff_ms = 50;
  /// Virtual nodes per worker on the routing ring.
  int virtual_nodes = 64;
  /// Unread by the broker; kept only because perfbench/layers.cc sets it.
  serve::SessionConfig session;
};

class BrokerSession : public serve::LineHandler {
 public:
  BrokerSession(BrokerConfig config, Transport& transport);

  /// One request line in, one response line out — serve::LineHandler, so
  /// ServePipe/TcpServer drive a broker exactly as they drive a Session.
  std::string HandleLine(
      const std::string& line,
      std::chrono::steady_clock::time_point received_at) override;

  const HashRing& ring() const { return ring_; }

 private:
  /// transport_.Call with the per-request failure policy: one reset +
  /// backoff + retry round per configured attempt.
  common::StatusOr<std::string> CallWithRetry(int worker,
                                              const std::string& doc);
  /// Forwards one parsed request (whose canonical document is `doc`) to
  /// its owner worker and returns the canonical response document.
  std::string RouteOne(const serve::Request& request,
                       const std::string& doc);
  /// The batch envelope: elements group into one sub-batch per owner
  /// worker (dispatched concurrently, gathered verbatim), and the
  /// documents splice back in request order.
  std::string ExecuteBatch(const serve::BatchRequest& batch,
                           const std::string& line);

  BrokerConfig config_;
  Transport& transport_;
  HashRing ring_;
};

}  // namespace groupform::fleet

#endif  // GROUPFORM_FLEET_BROKER_H_
