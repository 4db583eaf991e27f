#ifndef GROUPFORM_SERVE_INSTANCE_CACHE_H_
#define GROUPFORM_SERVE_INSTANCE_CACHE_H_

// The piece of the serving layer the CLI fundamentally cannot provide: a
// process-lifetime, LRU-bounded cache of loaded rating matrices keyed by
// InstanceSpec::CanonicalKey, so thousands of requests naming the same
// dataset share one load/generation instead of re-paying it per request
// (DESIGN.md §12.3).

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "core/delta.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"
#include "data/rating_store.h"
#include "serve/protocol.h"

namespace groupform::serve {

/// Builds the *dense* matrix a non-"gfcm" `spec` describes (ignoring
/// `spec.backend`), with no caching. INVALID_ARGUMENT for malformed
/// inline ratings, kind "gfcm" (which has no dense build — use
/// LoadInstance), or an unknown kind; NOT_FOUND (from the loaders) for a
/// missing file.
common::StatusOr<data::RatingMatrix> BuildInstance(const InstanceSpec& spec);

/// The user count `spec` declares: BuildInstance builds exactly
/// `spec.users` rows for kinds "synthetic", "dense" and "inline", so a
/// caller can price them before building. 0 for the file kinds, whose
/// population is known only once loaded.
std::int32_t DeclaredUsers(const InstanceSpec& spec);

/// One loaded instance behind a storage backend (DESIGN.md §14.4):
/// exactly one of `dense` / `compact` is set. backend "dense" →
/// `dense`; "compact" and "mmap" → `compact` (in-RAM quantized cells vs
/// a zero-copy map of the GFCM file).
struct LoadedInstance {
  std::shared_ptr<const data::RatingMatrix> dense;
  std::shared_ptr<const data::CompactRatingMatrix> compact;

  /// The read-side view solvers consume (whichever backend is set).
  data::RatingStore Store() const {
    GF_CHECK(dense != nullptr || compact != nullptr)
        << "LoadedInstance has no backend";
    if (dense != nullptr) return data::RatingStore(*dense);
    return data::RatingStore(*compact);
  }

  /// Bytes the cache charges against its budget: the exact heap
  /// footprint (ByteSize) for in-RAM backends; an mmap-backed instance
  /// charges only its fixed resident overhead — the kernel owns the
  /// payload pages and reclaims them under memory pressure, which is how
  /// serverd serves instances larger than its --cache-mb budget
  /// (DESIGN.md §14.3).
  std::int64_t ChargedBytes() const;

  /// Outstanding references to the stored object (the cache's pinning
  /// probe; the cache's own reference counts as 1).
  long UseCount() const;
};

/// Loads `spec` into the backend it names, with no caching: kind "gfcm"
/// reads the GFCM file (mmapped for backend "mmap", copied in for
/// "compact", dequantized for "dense"); every other kind builds the
/// dense matrix and, for backend "compact", quantizes it at spec.qbits.
common::StatusOr<LoadedInstance> LoadInstance(const InstanceSpec& spec);

/// Thread-safe LRU cache of loaded instances.
///
/// Eviction contract (DESIGN.md §12.3, §14.3): entries are charged their
/// exact in-memory size (LoadedInstance::ChargedBytes — mmap-backed
/// entries charge only their fixed resident overhead); when the total
/// exceeds the byte budget, least-recently-used entries are dropped —
/// except *pinned* entries, i.e. instances currently referenced by an
/// in-flight request (observable as shared_ptr use_count > 1), which are
/// never evicted; the budget is therefore a soft limit while requests
/// hold large instances. A single instance larger than the whole budget
/// is admitted (and evicted as soon as it is both unpinned and LRU).
class InstanceCache {
 public:
  /// `capacity_bytes` <= 0 means unlimited.
  explicit InstanceCache(std::int64_t capacity_bytes);

  /// The cached instance for `spec`, loading it on first use. A cache
  /// hit refreshes the entry's recency. The returned shared_ptrs pin the
  /// entry for as long as the caller holds them.
  common::StatusOr<LoadedInstance> Get(const InstanceSpec& spec);

  /// A resolved instance epoch (DESIGN.md §13): the base instance plus a
  /// validated delta sequence.
  struct EpochInstance {
    /// serve::EpochKey(spec, deltas).
    std::string key;
    /// The base instance. Holding it pins the base cache entry for the
    /// request, and its user count anchors the session's per-prefix
    /// population count.
    std::shared_ptr<const data::RatingMatrix> base;
    /// The post-delta matrix in epoch-local user ids. Equals `base`
    /// (same object, no copy) when the sequence cancels out.
    std::shared_ptr<const data::RatingMatrix> matrix;
    /// Active base-matrix user ids, ascending: epoch-local id i names
    /// base user active_users[i].
    std::vector<UserId> active_users;
  };

  /// Resolves `spec` + `deltas` to an epoch, validating the sequence
  /// (core::ApplyDeltas errors pass through). Delta streams require the
  /// dense backend — rerates rewrite cells a quantized instance cannot
  /// represent exactly and mmap pages are immutable — so a non-dense
  /// `spec.backend` answers INVALID_ARGUMENT here. Materialises the
  /// post-delta matrix at most once per epoch key. Copy-on-first-
  /// effective-delta: a fully cancelling sequence shares the base
  /// matrix's cache entry and inserts nothing, so concurrent
  /// `groupform.request/1` streams on the base are unaffected; an
  /// effective sequence gets its own LRU entry under the epoch key, with
  /// the same byte accounting and eviction rules as base entries.
  common::StatusOr<EpochInstance> GetEpoch(
      const InstanceSpec& spec,
      std::span<const core::PopulationDelta> deltas);

  /// A memoized per-epoch solve, stored in epoch-local user ids. The
  /// delta session logic uses this to fold warm starts across request
  /// prefixes and to price `objective_delta_vs_previous` without
  /// re-solving; entries are pure memoization (the key embeds solver,
  /// options, problem, and seed), so a miss only costs a re-solve.
  struct CachedSolution {
    core::FormationResult result;
  };

  /// nullptr on miss. A hit refreshes the entry's recency.
  std::shared_ptr<const CachedSolution> GetSolution(
      const std::string& key) const;

  /// Inserts (or refreshes) a memoized solve; the memo keeps the most
  /// recent kSolutionMemoCapacity entries.
  void PutSolution(const std::string& key,
                   std::shared_ptr<const CachedSolution> solution);

  static constexpr int kSolutionMemoCapacity = 256;

  /// Observability counters; hits + misses = completed Get calls
  /// (failed loads count as neither).
  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long evictions = 0;
    std::int64_t bytes = 0;
    int entries = 0;
  };
  Stats stats() const;

  std::int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::string key;
    LoadedInstance instance;
    std::int64_t bytes = 0;
  };

  /// Shared lookup/build/insert path of Get and GetEpoch: double-checked
  /// locking, `build` runs outside the lock.
  common::StatusOr<LoadedInstance> GetOrBuild(
      const std::string& key,
      const std::function<common::StatusOr<LoadedInstance>()>& build);

  /// Drops unpinned LRU entries until within budget. Caller holds mu_.
  void EvictLocked();

  const std::int64_t capacity_bytes_;

  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;

  /// The solution memo has its own lock: a PutSolution must never
  /// contend with matrix loads.
  mutable std::mutex solution_mu_;
  using SolutionEntry =
      std::pair<std::string, std::shared_ptr<const CachedSolution>>;
  mutable std::list<SolutionEntry> solution_lru_;
  mutable std::map<std::string, std::list<SolutionEntry>::iterator>
      solution_index_;
};

}  // namespace groupform::serve

#endif  // GROUPFORM_SERVE_INSTANCE_CACHE_H_
