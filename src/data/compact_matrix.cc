#include "data/compact_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace groupform::data {

using common::Status;
using common::StatusOr;
using common::StrFormat;

Quantization Quantization::For(const RatingScale& scale, int rating_bits) {
  GF_CHECK(rating_bits == 8 || rating_bits == 16)
      << "unsupported rating cell width " << rating_bits;
  Quantization q;
  q.rating_bits = rating_bits;
  q.range = scale.range();
  const std::int32_t base = rating_bits == 8 ? 255 : 65535;
  if (!(q.range > 0.0)) {
    // Degenerate scale (min == max): a single grid point.
    q.intervals = 1;
    q.range = 0.0;
    return q;
  }
  // Prefer an interval count that is an exact multiple of an integral range
  // so the scale's integer grid quantizes losslessly; otherwise use the full
  // cell resolution.
  const double floor_range = std::floor(q.range);
  if (floor_range == q.range && q.range <= static_cast<double>(base)) {
    const std::int32_t int_range = static_cast<std::int32_t>(q.range);
    q.intervals = (base / int_range) * int_range;
  } else {
    q.intervals = base;
  }
  return q;
}

std::int32_t Quantization::Quantize(double scale_min, Rating rating) const {
  if (!(range > 0.0)) return 0;
  const double pos =
      (rating - scale_min) * static_cast<double>(intervals) / range;
  const auto q = static_cast<std::int32_t>(std::llround(pos));
  return std::clamp(q, 0, intervals);
}

CompactRatingMatrix CompactRatingMatrix::FromMatrix(const RatingMatrix& matrix,
                                                    int rating_bits) {
  CompactRatingMatrix out;
  out.num_items_ = matrix.num_items();
  out.scale_ = matrix.scale();
  out.quant_ = Quantization::For(matrix.scale(), rating_bits);
  out.item_bits_ = matrix.num_items() <= 65535 ? 16 : 32;

  const std::int32_t num_users = matrix.num_users();
  const auto num_ratings = static_cast<std::size_t>(matrix.num_ratings());
  out.own_offsets_.reserve(static_cast<std::size_t>(num_users) + 1);
  out.own_offsets_.push_back(0);
  if (out.item_bits_ == 16) {
    out.own_items16_.reserve(num_ratings);
  } else {
    out.own_items32_.reserve(num_ratings);
  }
  if (rating_bits == 8) {
    out.own_q8_.reserve(num_ratings);
  } else {
    out.own_q16_.reserve(num_ratings);
  }

  const double scale_min = out.scale_.min;
  std::uint64_t cells = 0;
  for (std::int32_t u = 0; u < num_users; ++u) {
    for (const RatingEntry& e : matrix.RatingsOf(u)) {
      const std::int32_t q = out.quant_.Quantize(scale_min, e.rating);
      if (out.item_bits_ == 16) {
        out.own_items16_.push_back(static_cast<std::uint16_t>(e.item));
      } else {
        out.own_items32_.push_back(e.item);
      }
      if (rating_bits == 8) {
        out.own_q8_.push_back(static_cast<QRating8>(q + kQ8ZeroPoint));
      } else {
        out.own_q16_.push_back(static_cast<QRating16>(q + kQ16ZeroPoint));
      }
      ++cells;
    }
    out.own_offsets_.push_back(cells);
  }
  out.BindOwnedStorage();
  return out;
}

RatingMatrix CompactRatingMatrix::ToMatrix() const {
  std::vector<std::size_t> offsets(row_offsets_.begin(), row_offsets_.end());
  std::vector<RatingEntry> entries;
  entries.reserve(static_cast<std::size_t>(num_ratings()));
  const std::int32_t users = num_users();
  for (std::int32_t u = 0; u < users; ++u) {
    VisitRow(u, [&entries](ItemId item, Rating rating) {
      entries.push_back({item, rating});
    });
  }
  auto matrix = RatingMatrix::FromSortedCsr(std::move(offsets),
                                            std::move(entries), num_items_,
                                            scale_);
  // The compact invariants (validated at load / guaranteed by FromMatrix)
  // are a superset of FromSortedCsr's, so this cannot fail.
  GF_CHECK(matrix.ok()) << matrix.status().ToString();
  return std::move(matrix).value();
}

std::optional<Rating> CompactRatingMatrix::GetRating(UserId user,
                                                     ItemId item) const {
  const std::size_t lo = RowBegin(user);
  const std::size_t hi = RowEnd(user);
  if (item_bits_ == 16) {
    if (item < 0 || item > 65535) return std::nullopt;
    const auto* base = items16_.data();
    const auto* it = std::lower_bound(base + lo, base + hi,
                                      static_cast<std::uint16_t>(item));
    if (it == base + hi || static_cast<ItemId>(*it) != item) {
      return std::nullopt;
    }
    return DequantizeCell(static_cast<std::size_t>(it - base));
  }
  const auto* base = items32_.data();
  const auto* it = std::lower_bound(base + lo, base + hi, item);
  if (it == base + hi || *it != item) return std::nullopt;
  return DequantizeCell(static_cast<std::size_t>(it - base));
}

std::int64_t CompactRatingMatrix::ByteSize() const {
  const auto ratings = num_ratings();
  const std::int64_t item_bytes = item_bits_ == 16 ? 2 : 4;
  const std::int64_t q_bytes = rating_bits() == 8 ? 1 : 2;
  return static_cast<std::int64_t>(row_offsets_.size()) *
             static_cast<std::int64_t>(sizeof(std::uint64_t)) +
         ratings * (item_bytes + q_bytes);
}

std::int64_t CompactRatingMatrix::ResidentBytes() const {
  // Mapped payloads live in the OS page cache, not this process's heap; the
  // cache charges only a fixed per-instance overhead for bookkeeping.
  if (mmap_backed()) return kMmapResidentOverheadBytes;
  return ByteSize();
}

void CompactRatingMatrix::BindOwnedStorage() {
  row_offsets_ = own_offsets_;
  items16_ = own_items16_;
  items32_ = own_items32_;
  q8_ = own_q8_;
  q16_ = own_q16_;
}

Status CompactRatingMatrix::ValidateLayout() const {
  if (num_items_ < 0) {
    return Status::InvalidArgument("negative num_items");
  }
  if (!(scale_.min <= scale_.max)) {
    return Status::InvalidArgument(
        StrFormat("inverted rating scale [%g, %g]", scale_.min, scale_.max));
  }
  if (quant_.intervals <= 0) {
    return Status::InvalidArgument("non-positive quantization intervals");
  }
  if (row_offsets_.empty()) {
    return Status::InvalidArgument("row_offsets must have num_users+1 slots");
  }
  if (row_offsets_.front() != 0) {
    return Status::InvalidArgument("row_offsets must start at 0");
  }
  const std::uint64_t cells = row_offsets_.back();
  const std::size_t item_cells =
      item_bits_ == 16 ? items16_.size() : items32_.size();
  const std::size_t q_cells = rating_bits() == 8 ? q8_.size() : q16_.size();
  if (cells != item_cells || cells != q_cells) {
    return Status::InvalidArgument(
        StrFormat("stream sizes disagree: offsets end at %llu, %zu item "
                  "cells, %zu rating cells",
                  static_cast<unsigned long long>(cells), item_cells,
                  q_cells));
  }
  for (std::size_t u = 0; u + 1 < row_offsets_.size(); ++u) {
    if (row_offsets_[u] > row_offsets_[u + 1]) {
      return Status::InvalidArgument(
          StrFormat("row_offsets not monotone at row %zu", u));
    }
    ItemId prev = -1;
    for (std::size_t i = row_offsets_[u]; i < row_offsets_[u + 1]; ++i) {
      const ItemId item = ItemAt(i);
      if (item <= prev || item >= num_items_) {
        return Status::InvalidArgument(
            StrFormat("row %zu not strictly sorted / item %d outside [0, %d)",
                      u, item, num_items_));
      }
      prev = item;
    }
  }
  // Every stored cell must sit on the grid [0, intervals]; out-of-grid cells
  // would dequantize outside the rating scale.
  for (std::uint64_t i = 0; i < cells; ++i) {
    const std::int32_t unbiased =
        rating_bits() == 8
            ? static_cast<std::int32_t>(q8_[i]) - kQ8ZeroPoint
            : static_cast<std::int32_t>(q16_[i]) - kQ16ZeroPoint;
    if (unbiased < 0 || unbiased > quant_.intervals) {
      return Status::InvalidArgument(
          StrFormat("rating cell %llu off the quantization grid",
                    static_cast<unsigned long long>(i)));
    }
  }
  return Status::Ok();
}

}  // namespace groupform::data
