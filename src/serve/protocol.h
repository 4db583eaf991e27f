#ifndef GROUPFORM_SERVE_PROTOCOL_H_
#define GROUPFORM_SERVE_PROTOCOL_H_

// The groupform wire protocol (docs/PROTOCOL.md, DESIGN.md §12): one
// newline-delimited JSON request per line in, one JSON response line out,
// in request order. `groupform.request/1` names a registry solver, an
// instance (inline ratings, a synthetic generator, or a file ref — the
// serving layer caches instances by their canonical key), the problem
// knobs the CLI exposes, and the execution envelope (seed, deadline_ms,
// user_cap). `groupform.response/1` mirrors the sweep engine's cell
// states: OK with objective/metrics/groups, DNF for work declined or
// abandoned by policy, ERR(<code>) for real failures.
//
// `groupform.delta/1` is the streaming sibling (DESIGN.md §13): the same
// request envelope plus an ordered "deltas" array of add_user /
// remove_user / rerate operations against the named base instance. Each
// delta request is self-contained — it carries the *full* cumulative
// sequence since the base, so requests stay order-independent under
// pipelining and all server-side epoch state is pure memoization. OK
// responses additionally report the epoch key, the objective delta
// against the previous epoch (the sequence minus its last operation),
// and the warm-start pass count.
//
// Canonical form: RenderRequest/RenderResponse emit every field in a
// fixed order with the library's number formatting, so parse ∘ render is
// the identity on rendered lines and byte-level golden diffs are
// meaningful.
//
// Two envelope layers ride on top of the per-request documents
// (DESIGN.md §15):
//
//   * `groupform.batch/1` — an ordered array of request/delta documents
//     executed as one unit; the `groupform.batchresponse/1` answer holds
//     one response document per element, in order, with the per-element
//     OK/DNF/ERR semantics unchanged. Batches are ordinary JSON lines on
//     the newline wire and a dedicated frame type on the binary wire.
//   * the GFB1 binary frame — a length-prefixed header (magic-sniffed on
//     the first bytes of a TCP connection; newline-JSON remains the
//     canonical/golden default) whose payloads are exactly the canonical
//     JSON documents above, so binary ≡ JSON response-for-response by
//     construction. Response frames carry explicit credit grants — the
//     per-stream backpressure contract (the client stops sending at
//     zero credits).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/constraint_spec.h"
#include "core/delta.h"
#include "core/solver.h"
#include "eval/sweep.h"

namespace groupform::serve {

inline constexpr char kRequestSchema[] = "groupform.request/1";
inline constexpr char kDeltaRequestSchema[] = "groupform.delta/1";
inline constexpr char kResponseSchema[] = "groupform.response/1";

/// Where a request's rating matrix comes from. The spec's canonical key
/// (CanonicalKey) identifies the instance in the serving layer's cache, so
/// thousands of requests naming the same spec share one loaded matrix.
struct InstanceSpec {
  /// "inline" | "synthetic" | "dense" | "csv" | "movielens" | "gfcm".
  std::string kind;

  /// Storage backend the serving layer loads this instance into
  /// (DESIGN.md §14.4): "dense" (CSR of RatingEntry cells, the default),
  /// "compact" (quantized in-RAM cells), or "mmap" (zero-copy map of a
  /// GFCM file — kind "gfcm" only, and that kind's default). Non-dense
  /// backends answer `groupform.delta/1` with ERR(INVALID_ARGUMENT):
  /// delta streams require the dense backend.
  std::string backend = "dense";
  /// backend "compact" on a generated/loaded kind: quantized cell width,
  /// 8 or 16 bits. Normalised to 8 whenever it is not in play (dense and
  /// mmap backends; kind "gfcm", whose width comes from the file), so
  /// rendering stays canonical.
  int qbits = 8;

  /// synthetic: generator preset, "yahoo" or "movielens".
  std::string preset = "yahoo";
  /// synthetic / dense / inline: population shape.
  std::int32_t users = 0;
  std::int32_t items = 0;
  /// dense: number of taste clusters.
  int clusters = 4;
  /// synthetic / dense: generator seed (independent of the solver seed).
  std::uint64_t seed = 42;

  /// csv / movielens: server-side path to the ratings file.
  /// gfcm: server-side path to a data::SaveCompactBinary (GFCM) file.
  std::string path;

  /// inline: explicit (user, item, rating) observations.
  struct Triplet {
    UserId user = 0;
    ItemId item = 0;
    Rating rating = 0.0;
  };
  std::vector<Triplet> ratings;
  /// inline: rating scale bounds.
  double scale_min = 1.0;
  double scale_max = 5.0;

  /// Deterministic cache key: equal specs collapse to one cache entry.
  /// Inline instances key on a content hash, file refs on the path (the
  /// cache trusts files not to change under a running server).
  std::string CanonicalKey() const;
};

/// Epoch cache key of a base instance plus an ordered delta sequence:
/// `CanonicalKey()` when `deltas` is empty, else CanonicalKey() +
/// ":d<hash>" over core::DeltaSequenceHash. Order-sensitive — even a
/// fully cancelling sequence names a distinct epoch (sharing the base
/// matrix is the cache's copy-on-write decision, not the key's).
std::string EpochKey(const InstanceSpec& spec,
                     std::span<const core::PopulationDelta> deltas);

/// The problem knobs of the CLI, by the same names and defaults.
struct ProblemSpec {
  std::string semantics = "lm";     // lm | av
  std::string aggregation = "min";  // max | min | sum
  std::string missing = "rmin";     // rmin | zero | skip
  int k = 5;
  int groups = 10;
  int candidate_depth = 0;
  /// Formation constraints (DESIGN.md §17): size bounds, must/cannot-link
  /// pairs, per-user fairness floor. Empty (the default) renders nothing,
  /// so unconstrained request lines stay byte-identical to PR-9 goldens.
  /// Structure is validated at parse time (ValidateStructure); population
  /// checks wait for the loaded instance. Only the constrained solver
  /// family honours the spec — unconstrained solvers ignore it.
  core::ConstraintSpec constraints;
};

/// One parsed `groupform.request/1`.
struct Request {
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::string id;
  /// core::SolverRegistry name; unknown names answer ERR(NOT_FOUND).
  std::string solver;
  /// Solver factory overrides; validated by the factory's GetChecked*
  /// getters exactly as the CLI's --solver-opt values are.
  core::SolverOptions options;
  InstanceSpec instance;
  ProblemSpec problem;
  /// True for `groupform.delta/1` lines: `instance` names the *base* and
  /// `deltas` the full ordered mutation sequence since that base.
  bool is_delta = false;
  std::vector<core::PopulationDelta> deltas;
  /// Solver seed (the CLI's --algo-seed).
  std::uint64_t seed = core::FormationSolver::kDefaultSeed;
  /// Wall-clock budget from receipt to completion; 0 = none. Expiry maps
  /// to DNF (DESIGN.md §12) — and is the one wall-clock-dependent path of
  /// the protocol, see the determinism caveat there.
  std::int64_t deadline_ms = 0;
  /// Instance-size budget, the sweep engine's cap semantics: a loaded
  /// instance with more users answers DNF without running. 0 = unlimited.
  std::int64_t user_cap = 0;
  /// Include the full partition (array of member arrays) in the response.
  bool include_groups = false;
  /// Include wall-clock seconds in the response. Off by default so
  /// responses stay byte-identical at every thread count.
  bool record_seconds = false;
};

/// Parses one request line. INVALID_ARGUMENT on malformed JSON, a missing
/// or wrong "schema", a missing "solver"/"instance", or out-of-domain
/// field values; unknown object keys are ignored (forward compatibility).
common::StatusOr<Request> ParseRequestLine(const std::string& line);

/// The canonical one-line rendering (no trailing newline): every field
/// explicit, fixed order, options sorted by key. ParseRequestLine is its
/// exact inverse.
std::string RenderRequest(const Request& request);

/// The evaluation metrics reported with every OK response (eval/metrics.h).
struct ResponseMetrics {
  double avg_group_satisfaction = 0.0;
  double mean_user_rating = 0.0;
  double mean_user_ndcg = 0.0;
  double fully_satisfied = 0.0;
};

/// One `groupform.response/1`. The state vocabulary is the sweep engine's
/// (eval::SweepCellState): OK, DNF (expected omission — deadline, cap, or
/// the solver's own RESOURCE_EXHAUSTED budget), ERR (real failure).
struct Response {
  std::string id;
  eval::SweepCellState state = eval::SweepCellState::kOk;
  /// Why the request is DNF/ERR; OK status for finished requests.
  common::Status status;
  /// OK payload.
  std::string solver;
  double objective = 0.0;
  int num_groups = 0;
  /// The partition, present when the request set include_groups.
  bool has_groups = false;
  std::vector<std::vector<UserId>> groups;
  ResponseMetrics metrics;
  /// Wall-clock seconds; rendered only when the request set
  /// record_seconds (negative = omitted).
  double seconds = -1.0;
  /// Delta-response extras, rendered *after* groups and before seconds
  /// so an OK delta response is byte-identical to the fresh
  /// `groupform.request/1` response on the post-delta population up
  /// through its groups (the delta-equivalence property test leans on
  /// this). Present when the request was `groupform.delta/1`.
  bool is_delta = false;
  /// The EpochKey the request resolved to.
  std::string epoch;
  /// objective minus the previous epoch's objective, where the previous
  /// epoch applies the sequence without its last operation (an empty
  /// sequence is its own previous, so the value is then 0).
  double objective_delta_vs_previous = 0.0;
  /// FormationResult::refine_passes of the solve that answered this
  /// epoch (0 for single-shot solvers such as the greedy family).
  int warm_start_passes = 0;
  /// Anytime extras (DESIGN.md §17.4), rendered after the delta extras
  /// and before seconds, and only when set — so every pre-existing
  /// response stays byte-identical. `partial` marks a best-so-far result
  /// whose deadline_ms budget expired mid-search (OK, not DNF);
  /// `floor_violations` counts users still below the fairness floor
  /// after fairgreedy's relocation pass (0 is omitted).
  bool partial = false;
  int floor_violations = 0;
};

/// The canonical one-line rendering (no trailing newline).
std::string RenderResponse(const Response& response);

/// Parses one response line (the loopback client and the round-trip tests
/// are the consumers). INVALID_ARGUMENT on malformed lines.
common::StatusOr<Response> ParseResponseLine(const std::string& line);

// ---------------------------------------------------------------------------
// Batch envelope (DESIGN.md §15.2)

inline constexpr char kBatchRequestSchema[] = "groupform.batch/1";
inline constexpr char kBatchResponseSchema[] = "groupform.batchresponse/1";

/// Upper bound on elements per batch; larger batches answer
/// ERR(INVALID_ARGUMENT) without executing anything.
inline constexpr int kMaxBatchRequests = 4096;

/// One `groupform.batch/1`: an ordered array of request/delta documents
/// executed as a unit (one ThreadPool job, batch-local instance pinning)
/// while keeping per-element response semantics.
struct BatchRequest {
  /// Client-chosen correlation id for the envelope, echoed verbatim.
  std::string id;
  /// The elements, each an ordinary Request (is_delta selects the delta
  /// form exactly as for single lines). Never empty, never nested.
  std::vector<Request> requests;
};

/// The matching `groupform.batchresponse/1`: responses.size() ==
/// requests.size(), element i answering request i.
struct BatchResponse {
  std::string id;
  std::vector<Response> responses;
};

/// Parses one batch line. INVALID_ARGUMENT on a malformed envelope, an
/// empty or oversized requests array, or any malformed element (the error
/// names the element index); a batch inside a batch is malformed.
common::StatusOr<BatchRequest> ParseBatchRequestLine(const std::string& line);

/// Canonical one-line rendering: schema, id, then each element's full
/// RenderRequest document in order. ParseBatchRequestLine is its inverse.
std::string RenderBatchRequest(const BatchRequest& batch);

std::string RenderBatchResponse(const BatchResponse& batch);
common::StatusOr<BatchResponse> ParseBatchResponseLine(
    const std::string& line);

/// The batchresponse envelope around already-rendered response documents,
/// spliced verbatim — the broker's gather path, guaranteed byte-identical
/// to RenderBatchResponse over the same documents because it runs the
/// same envelope writer.
std::string RenderBatchResponseFromDocs(
    const std::string& id, std::span<const std::string> response_docs);

/// The inverse splice: the element documents of a canonical batchresponse
/// line, each byte-for-byte as the worker rendered it. The broker's
/// sub-batch gather path depends on the verbatim guarantee — a parse +
/// re-render round trip would put response bytes at the mercy of float
/// formatting instead of the renderer that produced them. Only the
/// canonical RenderBatchResponse shape is accepted; anything else is
/// INVALID_ARGUMENT (the caller falls back to per-element routing).
common::StatusOr<std::vector<std::string>> SplitBatchResponseDocs(
    const std::string& line);

/// The broker-side pair over the request envelope: sub-batches splice
/// the client's element documents verbatim instead of re-rendering every
/// element per worker. Split rejects non-canonical envelopes with
/// INVALID_ARGUMENT — the broker then rebuilds elements via
/// RenderRequest, which costs CPU but accepts any parseable input.
std::string RenderBatchRequestFromDocs(
    const std::string& id, std::span<const std::string> request_docs);
common::StatusOr<std::vector<std::string>> SplitBatchRequestDocs(
    const std::string& line);

/// One request *or* batch line, parsed by schema — the serving layer's
/// single dispatch point, so both wires accept both shapes.
struct AnyRequest {
  bool is_batch = false;
  /// Always false; kept only because perfbench/layers.cc reads it.
  bool is_shard = false;
  Request request;     // valid when !is_batch
  BatchRequest batch;  // valid when is_batch
};
common::StatusOr<AnyRequest> ParseAnyRequestLine(const std::string& line);

/// The ERR line for a request line that failed to parse or execute. It
/// echoes the line's "id" whenever the line is a JSON object with a
/// string "id", so the client can tell which request failed; any other
/// line answers an empty id. Session and the fleet broker both answer
/// through this, so a broker's local ERR is byte-identical to a worker's.
std::string RenderLineError(const std::string& line, common::Status status);

// ---------------------------------------------------------------------------
// GFB1 binary frame codec (DESIGN.md §15.1)
//
// A connection whose first four bytes are exactly "GFB1" speaks frames;
// anything else is the newline-JSON wire. After the magic, every unit in
// both directions is one frame:
//
//   offset size  field
//   0      4     payload length N, unsigned little-endian
//   4      1     frame type (FrameType)
//   5      1     flags — must be 0 in GFB1; nonzero is a codec error
//   6      2     credit grant, unsigned little-endian (server→client)
//   8      N     payload: one canonical JSON document, no newline
//
// Payloads are exactly the canonical JSON documents of the newline wire,
// which is what makes binary ≡ JSON response-for-response a structural
// property rather than a test aspiration.

inline constexpr char kFrameMagic[4] = {'G', 'F', 'B', '1'};
inline constexpr std::size_t kFrameMagicBytes = 4;
inline constexpr std::size_t kFrameHeaderBytes = 8;

enum class FrameType : std::uint8_t {
  /// Server→client, once, immediately after the magic: the payload is a
  /// `groupform.hello/1` document announcing the credit window.
  kHello = 0,
  /// Client→server: payload is one `groupform.request/1` or
  /// `groupform.delta/1` document. Consumes one credit.
  kRequest = 1,
  /// Server→client: payload is one `groupform.response/1` document. The
  /// header's credit field grants credits back (1 per retired frame).
  kResponse = 2,
  /// Client→server: payload is one `groupform.batch/1` document. A batch
  /// consumes one credit regardless of its element count.
  kBatchRequest = 3,
  /// Server→client: payload is one `groupform.batchresponse/1` document.
  kBatchResponse = 4,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::uint16_t credits = 0;
  std::string payload;
};

/// Serialises header + payload (no magic; the magic is a once-per-
/// connection preamble, not part of any frame).
std::string EncodeFrame(FrameType type, std::uint16_t credits,
                        std::string_view payload);

enum class FrameDecodeResult {
  kFrame,     // *frame holds a complete frame, *consumed bytes were used
  kNeedMore,  // buffer holds a prefix of a valid frame; read more bytes
  kError,     // unrecoverable codec error (bad type/flags/length);
              // *error says why. Frame streams cannot resynchronise.
};

/// Decodes the frame starting at buffer[0]. Rejects unknown frame types,
/// nonzero flags, and payloads larger than max_payload_bytes (callers
/// pass the same kMaxRequestLineBytes bound the JSON wire enforces).
FrameDecodeResult DecodeFrame(std::string_view buffer,
                              std::size_t max_payload_bytes, Frame* frame,
                              std::size_t* consumed, std::string* error);

// ---------------------------------------------------------------------------
// Hello document — the binary wire's opening credit grant.

inline constexpr char kHelloSchema[] = "groupform.hello/1";

struct Hello {
  /// Initial credit window: how many request/batch frames the client may
  /// have outstanding (sent, response not yet received).
  int credits = 0;
  /// Largest frame payload the server accepts.
  std::int64_t max_frame_bytes = 0;
  /// Largest batch element count the server accepts.
  int max_batch_requests = kMaxBatchRequests;
};

std::string RenderHello(const Hello& hello);
common::StatusOr<Hello> ParseHelloPayload(const std::string& payload);

}  // namespace groupform::serve

#endif  // GROUPFORM_SERVE_PROTOCOL_H_
