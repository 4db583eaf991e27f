#include "data/loaders.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/csv.h"
#include "common/strings.h"

namespace groupform::data {

using common::Status;
using common::StatusOr;
using common::StrFormat;

namespace {

struct ParsedTriplet {
  long long user;
  long long item;
  double rating;
};

StatusOr<std::vector<ParsedTriplet>> ParseRows(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<ParsedTriplet> triplets;
  triplets.reserve(rows.size());
  for (std::size_t row_idx = 0; row_idx < rows.size(); ++row_idx) {
    const auto& row = rows[row_idx];
    if (row.size() < 3) {
      return Status::InvalidArgument(
          StrFormat("row %zu: expected >= 3 fields, got %zu", row_idx,
                    row.size()));
    }
    ParsedTriplet t;
    if (!common::ParseInt64(row[0], &t.user) ||
        !common::ParseInt64(row[1], &t.item)) {
      return Status::InvalidArgument(
          StrFormat("row %zu: malformed user/item id", row_idx));
    }
    if (!common::ParseDouble(row[2], &t.rating)) {
      return Status::InvalidArgument(
          StrFormat("row %zu: malformed rating '%s'", row_idx,
                    row[2].c_str()));
    }
    triplets.push_back(t);
  }
  return triplets;
}

StatusOr<RatingMatrix> BuildFromTriplets(
    const std::vector<ParsedTriplet>& triplets, const LoaderOptions& options) {
  // Dense re-indexing in first-appearance order keeps loads deterministic.
  std::unordered_map<long long, UserId> user_ids;
  std::unordered_map<long long, ItemId> item_ids;
  for (const auto& t : triplets) {
    user_ids.try_emplace(t.user, static_cast<UserId>(user_ids.size()));
    item_ids.try_emplace(t.item, static_cast<ItemId>(item_ids.size()));
  }
  RatingMatrixBuilder builder(static_cast<std::int32_t>(user_ids.size()),
                              static_cast<std::int32_t>(item_ids.size()),
                              options.scale);
  for (const auto& t : triplets) {
    double r = t.rating;
    if (!options.scale.Contains(r)) {
      if (!options.clamp_out_of_scale) {
        return Status::InvalidArgument(
            StrFormat("rating %g outside scale [%g, %g]", r,
                      options.scale.min, options.scale.max));
      }
      r = std::clamp(r, options.scale.min, options.scale.max);
    }
    GF_RETURN_IF_ERROR(
        builder.AddRating(user_ids.at(t.user), item_ids.at(t.item), r));
  }
  return std::move(builder).Build();
}

}  // namespace

StatusOr<RatingMatrix> ParseTriplets(const std::string& content,
                                     const LoaderOptions& options) {
  common::CsvReader::Options csv_options;
  csv_options.delimiter = options.delimiter;
  csv_options.skip_rows = options.has_header ? 1 : 0;
  const auto rows = common::CsvReader::ParseString(content, csv_options);
  GF_ASSIGN_OR_RETURN(auto triplets, ParseRows(rows));
  return BuildFromTriplets(triplets, options);
}

StatusOr<RatingMatrix> LoadTripletFile(const std::string& path,
                                       const LoaderOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseTriplets(buffer.str(), options);
}

StatusOr<RatingMatrix> LoadMovieLens(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string content = buffer.str();
  // "1::122::5::838985046" -> "1:122:5:838985046", then split on ':'. The
  // doubled delimiter produces empty fields which Split keeps, so instead
  // collapse "::" into a single ':'.
  std::string collapsed;
  collapsed.reserve(content.size());
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == ':' && i + 1 < content.size() &&
        content[i + 1] == ':') {
      collapsed += ':';
      ++i;
    } else {
      collapsed += content[i];
    }
  }
  LoaderOptions options;
  options.delimiter = ':';
  options.scale = RatingScale{0.5, 5.0};
  return ParseTriplets(collapsed, options);
}

}  // namespace groupform::data
