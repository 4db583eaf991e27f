#include "serve/instance_cache.h"

#include <utility>

#include "data/binary_io.h"
#include "data/loaders.h"
#include "data/synthetic.h"

namespace groupform::serve {

common::StatusOr<data::RatingMatrix> BuildInstance(
    const InstanceSpec& spec) {
  if (spec.kind == "gfcm") {
    return common::Status::InvalidArgument(
        "kind \"gfcm\" has no dense build path — load it via "
        "LoadInstance");
  }
  if (spec.kind == "csv") {
    data::LoaderOptions options;
    return data::LoadTripletFile(spec.path, options);
  }
  if (spec.kind == "movielens") {
    return data::LoadMovieLens(spec.path);
  }
  if (spec.kind == "synthetic") {
    const data::SyntheticConfig config =
        spec.preset == "movielens"
            ? data::MovieLensLikeConfig(spec.users, spec.items, spec.seed)
            : data::YahooMusicLikeConfig(spec.users, spec.items, spec.seed);
    return data::GenerateLatentFactor(config);
  }
  if (spec.kind == "dense") {
    return data::GenerateClusteredDense(spec.users, spec.items,
                                        spec.clusters, spec.seed);
  }
  if (spec.kind == "inline") {
    data::RatingScale scale;
    scale.min = spec.scale_min;
    scale.max = spec.scale_max;
    data::RatingMatrixBuilder builder(spec.users, spec.items, scale);
    for (const InstanceSpec::Triplet& triplet : spec.ratings) {
      GF_RETURN_IF_ERROR(
          builder.AddRating(triplet.user, triplet.item, triplet.rating));
    }
    return std::move(builder).Build();
  }
  return common::Status::InvalidArgument("unknown instance kind \"" +
                                         spec.kind + "\"");
}

std::int32_t DeclaredUsers(const InstanceSpec& spec) {
  const bool declared = spec.kind == "synthetic" || spec.kind == "dense" ||
                        spec.kind == "inline";
  return declared ? spec.users : 0;
}

std::int64_t LoadedInstance::ChargedBytes() const {
  if (dense != nullptr) return dense->ByteSize();
  GF_CHECK(compact != nullptr) << "LoadedInstance has no backend";
  // ResidentBytes: full ByteSize for in-RAM compact instances, the fixed
  // per-instance overhead for mmap-backed ones (DESIGN.md §14.3).
  return compact->ResidentBytes();
}

long LoadedInstance::UseCount() const {
  if (dense != nullptr) return dense.use_count();
  GF_CHECK(compact != nullptr) << "LoadedInstance has no backend";
  return compact.use_count();
}

common::StatusOr<LoadedInstance> LoadInstance(const InstanceSpec& spec) {
  LoadedInstance loaded;
  if (spec.kind == "gfcm") {
    const data::CompactReadMode mode = spec.backend == "mmap"
                                           ? data::CompactReadMode::kMmap
                                           : data::CompactReadMode::kInMemory;
    GF_ASSIGN_OR_RETURN(data::CompactRatingMatrix compact,
                        data::LoadCompactBinary(spec.path, mode));
    if (spec.backend == "dense") {
      loaded.dense = std::make_shared<const data::RatingMatrix>(
          compact.ToMatrix());
    } else {
      loaded.compact = std::make_shared<const data::CompactRatingMatrix>(
          std::move(compact));
    }
    return loaded;
  }
  GF_ASSIGN_OR_RETURN(data::RatingMatrix dense, BuildInstance(spec));
  if (spec.backend == "compact") {
    loaded.compact = std::make_shared<const data::CompactRatingMatrix>(
        data::CompactRatingMatrix::FromMatrix(dense, spec.qbits));
  } else {
    loaded.dense =
        std::make_shared<const data::RatingMatrix>(std::move(dense));
  }
  return loaded;
}

InstanceCache::InstanceCache(std::int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

common::StatusOr<LoadedInstance> InstanceCache::GetOrBuild(
    const std::string& key,
    const std::function<common::StatusOr<LoadedInstance>()>& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Refresh recency: splice the entry to the front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->instance;
    }
  }
  // Build outside the lock so a slow file load or large generation does
  // not stall concurrent requests for already-cached instances. Two
  // racing first requests may both build the instance; the loser's copy
  // is dropped.
  GF_ASSIGN_OR_RETURN(LoadedInstance built, build());
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->instance;
  }
  Entry entry;
  entry.key = key;
  entry.instance = built;
  entry.bytes = built.ChargedBytes();
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  stats_.bytes += lru_.front().bytes;
  ++stats_.misses;
  EvictLocked();
  return built;
}

common::StatusOr<LoadedInstance> InstanceCache::Get(
    const InstanceSpec& spec) {
  return GetOrBuild(spec.CanonicalKey(),
                    [&spec] { return LoadInstance(spec); });
}

common::StatusOr<InstanceCache::EpochInstance> InstanceCache::GetEpoch(
    const InstanceSpec& spec,
    std::span<const core::PopulationDelta> deltas) {
  EpochInstance epoch;
  epoch.key = EpochKey(spec, deltas);
  GF_ASSIGN_OR_RETURN(const LoadedInstance loaded, Get(spec));
  if (loaded.dense == nullptr) {
    return common::Status::InvalidArgument(
        "delta streams require the dense backend (instance backend is \"" +
        spec.backend + "\")");
  }
  epoch.base = loaded.dense;
  // The fold is cheap (no matrix copy) and delta sequences are small, so
  // it is re-validated per call — only the materialised matrix is cached.
  GF_ASSIGN_OR_RETURN(core::AppliedDeltas applied,
                      core::ApplyDeltas(*epoch.base, deltas));
  if (applied.identical_to_base) {
    // Copy-on-first-effective-delta: share the base entry, insert
    // nothing.
    epoch.matrix = epoch.base;
  } else {
    const data::RatingMatrix& base = *epoch.base;
    GF_ASSIGN_OR_RETURN(
        const LoadedInstance materialized,
        GetOrBuild(epoch.key,
                   [&base, &applied]() -> common::StatusOr<LoadedInstance> {
                     GF_ASSIGN_OR_RETURN(
                         data::RatingMatrix matrix,
                         core::MaterializeDeltas(base, applied));
                     LoadedInstance built;
                     built.dense = std::make_shared<const data::RatingMatrix>(
                         std::move(matrix));
                     return built;
                   }));
    epoch.matrix = materialized.dense;
  }
  epoch.active_users = std::move(applied.active_users);
  return epoch;
}

std::shared_ptr<const InstanceCache::CachedSolution>
InstanceCache::GetSolution(const std::string& key) const {
  std::lock_guard<std::mutex> lock(solution_mu_);
  const auto it = solution_index_.find(key);
  if (it == solution_index_.end()) return nullptr;
  solution_lru_.splice(solution_lru_.begin(), solution_lru_, it->second);
  return it->second->second;
}

void InstanceCache::PutSolution(
    const std::string& key,
    std::shared_ptr<const CachedSolution> solution) {
  std::lock_guard<std::mutex> lock(solution_mu_);
  const auto it = solution_index_.find(key);
  if (it != solution_index_.end()) {
    it->second->second = std::move(solution);
    solution_lru_.splice(solution_lru_.begin(), solution_lru_, it->second);
    return;
  }
  solution_lru_.emplace_front(key, std::move(solution));
  solution_index_[key] = solution_lru_.begin();
  while (static_cast<int>(solution_lru_.size()) > kSolutionMemoCapacity) {
    solution_index_.erase(solution_lru_.back().first);
    solution_lru_.pop_back();
  }
}

void InstanceCache::EvictLocked() {
  if (capacity_bytes_ <= 0) return;
  auto it = lru_.end();
  while (stats_.bytes > capacity_bytes_ && it != lru_.begin()) {
    --it;
    // Pinned entries (a request still holds the instance) are skipped;
    // the cache's own reference is the 1 in the comparison.
    if (it->instance.UseCount() > 1) continue;
    stats_.bytes -= it->bytes;
    ++stats_.evictions;
    index_.erase(it->key);
    it = lru_.erase(it);
  }
}

InstanceCache::Stats InstanceCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.entries = static_cast<int>(lru_.size());
  return stats;
}

}  // namespace groupform::serve
