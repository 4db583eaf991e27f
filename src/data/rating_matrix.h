#ifndef GROUPFORM_DATA_RATING_MATRIX_H_
#define GROUPFORM_DATA_RATING_MATRIX_H_

#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace groupform::data {

/// One (item, rating) observation inside a user's row.
///
/// Deliberately 16 bytes (int32 item + 4 bytes alignment padding + double
/// rating). The padding stays: Rating is double by the library-wide
/// bit-exactness contract — every solver, golden file, and cross-thread
/// determinism test pins exact IEEE doubles, so narrowing the dense cell
/// would change results everywhere. The remedy for the footprint is not a
/// packed dense cell but the quantized backend (data/compact_matrix.h),
/// whose 3–6 byte SoA cells carry an explicit, documented tolerance.
struct RatingEntry {
  ItemId item = kInvalidItem;
  Rating rating = 0.0;

  friend bool operator==(const RatingEntry&, const RatingEntry&) = default;
};

static_assert(sizeof(RatingEntry) == 16,
              "dense cell layout is pinned at 16 bytes (see comment above); "
              "an accidental layout change invalidates ByteSize accounting");

/// Inclusive rating scale [min, max] (the paper's R, e.g. {1..5} with
/// r_min = 1, r_max = 5). Predicted ratings may be fractional but must stay
/// inside the scale.
struct RatingScale {
  Rating min = 1.0;
  Rating max = 5.0;

  Rating range() const { return max - min; }
  bool Contains(Rating r) const { return r >= min && r <= max; }

  friend bool operator==(const RatingScale&, const RatingScale&) = default;
};

/// Immutable user-item rating matrix in CSR (compressed sparse row) layout:
/// each user's observations are stored contiguously, sorted by item id.
/// This is the single substrate every algorithm in the library consumes —
/// user-provided ratings and system-predicted ratings look identical here,
/// exactly as in the paper's data model (§2.1).
///
/// Construction goes through RatingMatrixBuilder (streaming, unsorted input)
/// or FromDense (small, fully-specified matrices such as the paper's running
/// examples).
class RatingMatrix {
 public:
  /// Builds from a dense row-major [users][items] matrix. Every cell is kept
  /// (use builder + AddRating for sparse data).
  static common::StatusOr<RatingMatrix> FromDense(
      const std::vector<std::vector<Rating>>& dense,
      RatingScale scale = RatingScale());

  /// Adopts already-sorted CSR storage without the builder's re-sort:
  /// `row_offsets` has num_users + 1 monotone entries ending at
  /// entries.size(), and each row's entries are sorted by item id with
  /// items in [0, num_items). O(num_ratings) validation; INVALID_ARGUMENT
  /// on any violation. This is the fast path for bulk producers that
  /// already emit CSR order (the scale generator, compact dequantization,
  /// delta epoch materialisation).
  static common::StatusOr<RatingMatrix> FromSortedCsr(
      std::vector<std::size_t> row_offsets, std::vector<RatingEntry> entries,
      std::int32_t num_items, RatingScale scale);

  std::int32_t num_users() const {
    return static_cast<std::int32_t>(row_offsets_.size()) - 1;
  }
  std::int32_t num_items() const { return num_items_; }
  std::int64_t num_ratings() const {
    return static_cast<std::int64_t>(entries_.size());
  }
  const RatingScale& scale() const { return scale_; }

  /// All observations of `user`, sorted by item id ascending.
  std::span<const RatingEntry> RatingsOf(UserId user) const {
    const auto begin = row_offsets_[static_cast<std::size_t>(user)];
    const auto end = row_offsets_[static_cast<std::size_t>(user) + 1];
    return {entries_.data() + begin, entries_.data() + end};
  }

  /// Number of items `user` has rated.
  std::int32_t NumRatingsOf(UserId user) const {
    return static_cast<std::int32_t>(RatingsOf(user).size());
  }

  /// The rating of `item` by `user`, or nullopt when unobserved.
  /// O(log d_u) via binary search in the user's row.
  std::optional<Rating> GetRating(UserId user, ItemId item) const;

  /// GetRating with a default for unobserved cells.
  Rating GetRatingOr(UserId user, ItemId item, Rating fallback) const {
    const auto r = GetRating(user, item);
    return r.has_value() ? *r : fallback;
  }

  /// Fraction of observed cells: num_ratings / (num_users * num_items).
  double Density() const;

  /// Logical payload bytes of the CSR storage: 16 bytes per entry plus
  /// 8 bytes per row-offset slot. This is the exact figure InstanceCache
  /// charges against its budget (it excludes vector slack and the
  /// fixed object header, which are noise at instance scale).
  std::int64_t ByteSize() const {
    return static_cast<std::int64_t>(entries_.size()) *
               static_cast<std::int64_t>(sizeof(RatingEntry)) +
           static_cast<std::int64_t>(row_offsets_.size()) *
               static_cast<std::int64_t>(sizeof(std::size_t));
  }

  /// A new matrix containing only the given users, re-indexed densely in the
  /// given order (item ids are preserved). Used by experiment sweeps that
  /// sample sub-populations. Fails on out-of-range or duplicate users.
  common::StatusOr<RatingMatrix> SubsetUsers(
      const std::vector<UserId>& users) const;

 private:
  friend class RatingMatrixBuilder;
  RatingMatrix() = default;

  std::vector<std::size_t> row_offsets_;  // size num_users + 1
  std::vector<RatingEntry> entries_;      // sorted by item within each row
  std::int32_t num_items_ = 0;
  RatingScale scale_;
};

/// Streaming builder accepting observations in any order. Duplicate
/// (user, item) pairs keep the last value.
class RatingMatrixBuilder {
 public:
  RatingMatrixBuilder(std::int32_t num_users, std::int32_t num_items,
                      RatingScale scale = RatingScale());

  /// Records one observation. Fails on out-of-range user/item or a rating
  /// outside the scale.
  common::Status AddRating(UserId user, ItemId item, Rating rating);

  /// Finalises into an immutable matrix; the builder must not be reused.
  RatingMatrix Build() &&;

 private:
  struct Triplet {
    UserId user;
    ItemId item;
    Rating rating;
  };

  std::int32_t num_users_;
  std::int32_t num_items_;
  RatingScale scale_;
  std::vector<Triplet> triplets_;
};

}  // namespace groupform::data

#endif  // GROUPFORM_DATA_RATING_MATRIX_H_
