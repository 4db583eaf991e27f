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
#include "core/formation.h"
#include "serve/instance_cache.h"
#include "serve/line_handler.h"
#include "serve/protocol.h"

namespace groupform::serve {

/// Serving knobs; groupform_serverd sets them from its --cache-mb and
/// --user-cap flags.
struct SessionConfig {
  /// InstanceCache byte budget (<= 0 = unlimited).
  std::int64_t cache_bytes = 256ll * 1024 * 1024;
  /// Server-wide user_cap applied when a request does not set one
  /// (0 = unlimited).
  std::int64_t default_user_cap = 0;
};

/// ProblemSpec → FormationProblem over `instance`, via the shared token
/// mappings in grouprec/semantics.h. The problem reads whichever backend
/// is loaded (dense, compact, or mmap) through the
/// FormationProblem::Store() seam the solvers use; it holds raw pointers,
/// so `instance` must outlive it. INVALID_ARGUMENT for an unknown token
/// or a problem that fails FormationProblem::Validate.
common::StatusOr<core::FormationProblem> BuildProblem(
    const ProblemSpec& spec, const LoadedInstance& instance);

/// One serving context: an instance cache plus the execution policy.
/// Thread-safe — the server runs many Execute calls concurrently as
/// ThreadPool jobs.
class Session : public LineHandler {
 public:
  explicit Session(SessionConfig config = SessionConfig());

  /// Executes a parsed `groupform.request/1` or `groupform.delta/1`
  /// request. Never fails: every outcome, including solver errors, is a
  /// Response (state OK/DNF/ERR). Both kinds take one path: check the
  /// solver name, resolve the instance (a delta's epoch through
  /// InstanceCache::GetEpoch), apply user_cap, build the problem, apply
  /// the deadline (anytime solvers get the remaining budget instead),
  /// solve, classify, package. A delta solves by route: localsearch folds
  /// a warm start forward from the previous epoch's memoized solution;
  /// every other solver cold-solves the epoch (and its predecessor, for
  /// objective_delta_vs_previous) with per-epoch memoization. Memoized
  /// state is keyed by (epoch, solver, options, problem, seed) and holds
  /// only complete solves, so responses are byte-identical at every
  /// thread count and pipelining window. `received_at` anchors the
  /// deadline_ms window; the server stamps it when the request line
  /// arrives (tests inject past instants to pin the deadline paths
  /// deterministically).
  Response Execute(
      const Request& request,
      std::chrono::steady_clock::time_point received_at =
          std::chrono::steady_clock::now());

  /// Executes a parsed `groupform.batch/1` envelope: Execute on every
  /// element in order, serially, inside the caller's thread — the server
  /// submits the whole batch as ONE ThreadPool job, which is the
  /// submission amortisation. responses[i] answers requests[i], with its
  /// own OK/DNF/ERR state.
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
  const SessionConfig config_;
  InstanceCache cache_;
};

}  // namespace groupform::serve

#endif  // GROUPFORM_SERVE_SESSION_H_
