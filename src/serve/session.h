#ifndef GROUPFORM_SERVE_SESSION_H_
#define GROUPFORM_SERVE_SESSION_H_

// Request execution for the serving front-end (DESIGN.md §12.2): resolve
// the solver through core::SolverRegistry (with the same strict option
// validation as the CLI), load the instance through the InstanceCache,
// enforce the request's user_cap and deadline with the sweep engine's
// DNF/ERR vocabulary, solve, and assemble the response envelope.

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/instance_cache.h"
#include "serve/line_handler.h"
#include "serve/protocol.h"

namespace groupform::serve {

/// Serving knobs, normally read from the GF_SERVE_* environment.
struct SessionConfig {
  /// InstanceCache byte budget (GF_SERVE_CACHE_MB; <= 0 = unlimited).
  std::int64_t cache_bytes = 256ll * 1024 * 1024;
  /// Server-wide user_cap applied when a request does not set one
  /// (0 = unlimited).
  std::int64_t default_user_cap = 0;
};

/// One serving context: an instance cache plus the execution policy.
/// Thread-safe — the server runs many Execute calls concurrently as
/// ThreadPool jobs.
class Session : public LineHandler {
 public:
  explicit Session(SessionConfig config = SessionConfig());

  /// Executes a parsed request. Never fails: every outcome, including
  /// solver errors, is a Response (state OK/DNF/ERR). `received_at`
  /// anchors the deadline_ms window; the server stamps it when the
  /// request line arrives (tests inject past instants to pin the
  /// deadline paths deterministically).
  Response Execute(
      const Request& request,
      std::chrono::steady_clock::time_point received_at =
          std::chrono::steady_clock::now());

  /// Executes a parsed `groupform.delta/1` request (DESIGN.md §13).
  /// Resolves the epoch through InstanceCache::GetEpoch (malformed delta
  /// sequences answer ERR(INVALID_ARGUMENT) on the wire), then solves by
  /// route: the greedy solver with membership-only deltas re-forms via
  /// core::IncrementalFormer on the base matrix; localsearch folds a
  /// warm start forward from the previous epoch's memoized solution;
  /// everything else cold-solves the epoch (and its predecessor, for
  /// objective_delta_vs_previous) with per-epoch memoization. All cached
  /// state is pure memoization keyed by (epoch, solver, options,
  /// problem, seed), so responses are byte-identical at every thread
  /// count and pipelining window.
  Response ExecuteDelta(
      const Request& request,
      std::chrono::steady_clock::time_point received_at =
          std::chrono::steady_clock::now());

  /// Executes a parsed `groupform.batch/1` envelope: every element in
  /// order, serially, inside the caller's thread — the server submits the
  /// whole batch as ONE ThreadPool job, which is the submission
  /// amortisation. Instances are additionally pinned batch-locally, so
  /// consecutive elements naming the same spec pay the cache's lock and
  /// lookup once. Element semantics are exactly the single-request ones:
  /// responses[i] answers requests[i], with its own OK/DNF/ERR state.
  BatchResponse ExecuteBatch(
      const BatchRequest& batch,
      std::chrono::steady_clock::time_point received_at =
          std::chrono::steady_clock::now());

  /// Parse + Execute + render: one request line in, one response line out
  /// (no trailing newline). Dispatches on schema — `groupform.batch/1`
  /// lines answer a `groupform.batchresponse/1` line; envelope-level
  /// parse failures render as a single ERR response (RenderLineError,
  /// which echoes the line's id). This is the function the server
  /// submits to the pool.
  std::string HandleLine(
      const std::string& line,
      std::chrono::steady_clock::time_point received_at =
          std::chrono::steady_clock::now()) override;

  InstanceCache& cache() { return cache_; }
  const SessionConfig& config() const { return config_; }

 private:
  /// The fresh-request path after instance resolution; `loaded` pins the
  /// cache entry for the duration (batch execution resolves once per
  /// distinct spec and reuses the pin across elements).
  Response ExecuteLoaded(const Request& request,
                         std::chrono::steady_clock::time_point received_at,
                         const LoadedInstance& loaded);

  const SessionConfig config_;
  InstanceCache cache_;
};

}  // namespace groupform::serve

#endif  // GROUPFORM_SERVE_SESSION_H_
