#ifndef GROUPFORM_DATA_LOADERS_H_
#define GROUPFORM_DATA_LOADERS_H_

#include <string>

#include "common/status.h"
#include "data/rating_matrix.h"

namespace groupform::data {

/// Options for the triplet-format loaders.
struct LoaderOptions {
  /// Field delimiter; MovieLens `ratings.dat` uses "::" which is normalised
  /// to a single ':' before splitting.
  char delimiter = ',';
  /// Skip a header row when present.
  bool has_header = false;
  /// Rating scale the file is expected to use; out-of-scale ratings are
  /// clamped (real MovieLens has half-star ratings in [0.5, 5]).
  RatingScale scale;
  /// Clamp out-of-scale ratings instead of failing.
  bool clamp_out_of_scale = true;
};

/// Loads `user,item,rating[,timestamp]` triplets. External user/item ids are
/// arbitrary integers; they are densely re-indexed in first-appearance
/// order. Extra columns beyond the third are ignored.
common::StatusOr<RatingMatrix> LoadTripletFile(const std::string& path,
                                               const LoaderOptions& options);

/// Parses triplets from an in-memory string (same format); exposed for
/// tests and tools.
common::StatusOr<RatingMatrix> ParseTriplets(const std::string& content,
                                             const LoaderOptions& options);

/// Loads MovieLens `ratings.dat` ("user::movie::rating::timestamp").
common::StatusOr<RatingMatrix> LoadMovieLens(const std::string& path);

}  // namespace groupform::data

#endif  // GROUPFORM_DATA_LOADERS_H_
