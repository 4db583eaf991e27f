#ifndef GROUPFORM_DATA_RATING_STORE_H_
#define GROUPFORM_DATA_RATING_STORE_H_

// The read-side seam between algorithms and rating storage. Every scorer
// and solver consumes a RatingStore — a non-owning tagged view over either
// the dense RatingMatrix or the quantized CompactRatingMatrix — so the
// whole library runs unchanged on both backends, and code written against
// `const RatingMatrix&` keeps compiling through the implicit conversion.
//
// Row iteration compiles down to the backend's native loop: the visitor
// templates dispatch once per call, then scan contiguous cells. The dense
// backend yields the exact stored doubles; the compact backend yields
// dequantized values on the documented grid (DESIGN.md §14.2), so all
// downstream arithmetic and tie-breaking is identical code on both.

#include <span>
#include <vector>

#include "common/logging.h"
#include "data/compact_matrix.h"
#include "data/rating_matrix.h"

namespace groupform::data {

class RatingStore {
 public:
  /// Implicit on purpose: existing call sites that pass a RatingMatrix to
  /// a store-taking function keep working unmodified.
  RatingStore(const RatingMatrix& dense)  // NOLINT(runtime/explicit)
      : dense_(&dense) {}
  RatingStore(const CompactRatingMatrix& compact)  // NOLINT(runtime/explicit)
      : compact_(&compact) {}

  bool is_dense() const { return dense_ != nullptr; }
  /// The dense backend, or nullptr when compact-backed. Dense-only
  /// consumers (delta streams, matrix factorization training) gate on this.
  const RatingMatrix* dense_or_null() const { return dense_; }
  const CompactRatingMatrix* compact_or_null() const { return compact_; }

  std::int32_t num_users() const {
    return dense_ ? dense_->num_users() : compact_->num_users();
  }
  std::int32_t num_items() const {
    return dense_ ? dense_->num_items() : compact_->num_items();
  }
  std::int64_t num_ratings() const {
    return dense_ ? dense_->num_ratings() : compact_->num_ratings();
  }
  const RatingScale& scale() const {
    return dense_ ? dense_->scale() : compact_->scale();
  }
  std::int32_t NumRatingsOf(UserId user) const {
    return dense_ ? dense_->NumRatingsOf(user) : compact_->NumRatingsOf(user);
  }

  std::optional<Rating> GetRating(UserId user, ItemId item) const {
    return dense_ ? dense_->GetRating(user, item)
                  : compact_->GetRating(user, item);
  }
  Rating GetRatingOr(UserId user, ItemId item, Rating fallback) const {
    const auto r = GetRating(user, item);
    return r.has_value() ? *r : fallback;
  }

  std::int64_t ByteSize() const {
    return dense_ ? dense_->ByteSize() : compact_->ByteSize();
  }

  /// Calls fn(ItemId, Rating) for every observation of `user` in item-id
  /// order.
  template <typename Fn>
  void VisitRow(UserId user, Fn&& fn) const {
    if (dense_) {
      for (const RatingEntry& e : dense_->RatingsOf(user)) {
        fn(e.item, e.rating);
      }
    } else {
      compact_->VisitRow(user, fn);
    }
  }

  /// The user's row as entries. Zero-copy on the dense backend; on the
  /// compact backend the row is dequantized into `scratch` (resized as
  /// needed) and the span aliases it — callers that only iterate should
  /// prefer VisitRow.
  std::span<const RatingEntry> Row(UserId user,
                                   std::vector<RatingEntry>& scratch) const {
    if (dense_) return dense_->RatingsOf(user);
    scratch.clear();
    compact_->VisitRow(user, [&scratch](ItemId item, Rating rating) {
      scratch.push_back({item, rating});
    });
    return scratch;
  }

 private:
  const RatingMatrix* dense_ = nullptr;
  const CompactRatingMatrix* compact_ = nullptr;
};

}  // namespace groupform::data

#endif  // GROUPFORM_DATA_RATING_STORE_H_
