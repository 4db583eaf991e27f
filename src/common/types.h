#ifndef GROUPFORM_COMMON_TYPES_H_
#define GROUPFORM_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace groupform {

/// Identifier of a user in the population. Users are dense-indexed
/// [0, num_users) by every component in this library; external string ids
/// are mapped at load time by the data layer.
using UserId = std::int32_t;

/// Identifier of an item in the catalogue, dense-indexed [0, num_items).
using ItemId = std::int32_t;

/// A preference rating. The paper's explicit-feedback scale is a discrete
/// set of positive integers (e.g. 1..5), but predicted ratings may be real
/// numbers (§2.1), so the library-wide rating type is double.
using Rating = double;

/// Sentinel for "no such user / item".
inline constexpr UserId kInvalidUser = -1;
inline constexpr ItemId kInvalidItem = -1;

/// Sentinel rating for "user has not rated this item and no policy applies".
inline constexpr Rating kMissingRating =
    -std::numeric_limits<Rating>::infinity();

}  // namespace groupform

#endif  // GROUPFORM_COMMON_TYPES_H_
