#include "data/binary_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/strings.h"

namespace groupform::data {
namespace {

using common::Status;
using common::StatusOr;

constexpr char kCompactMagic[4] = {'G', 'F', 'C', 'M'};
constexpr std::uint32_t kCompactVersion = 1;
constexpr std::size_t kCompactHeaderBytes = 64;

template <typename T>
void Append(std::string& buffer, const T& value) {
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

Status SaveCompactBinary(const CompactRatingMatrix& matrix,
                         const std::string& path) {
  std::string header;
  header.reserve(kCompactHeaderBytes);
  header.append(kCompactMagic, sizeof(kCompactMagic));
  Append(header, kCompactVersion);
  Append(header, static_cast<std::uint32_t>(matrix.num_users()));
  Append(header, static_cast<std::uint32_t>(matrix.num_items()));
  Append(header, matrix.scale().min);
  Append(header, matrix.scale().max);
  Append(header, static_cast<std::uint64_t>(matrix.num_ratings()));
  Append(header, static_cast<std::uint8_t>(matrix.rating_bits()));
  Append(header, static_cast<std::uint8_t>(matrix.item_bits()));
  Append(header, static_cast<std::uint16_t>(0));
  Append(header, static_cast<std::uint32_t>(matrix.quant().intervals));
  header.resize(kCompactHeaderBytes, '\0');

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path);
  const auto write_span = [&out](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  };
  write_span(header.data(), header.size());
  const auto offsets = matrix.row_offsets();
  write_span(offsets.data(), offsets.size_bytes());
  if (matrix.item_bits() == 16) {
    write_span(matrix.items16().data(), matrix.items16().size_bytes());
  } else {
    write_span(matrix.items32().data(), matrix.items32().size_bytes());
  }
  if (matrix.rating_bits() == 8) {
    write_span(matrix.q8().data(), matrix.q8().size_bytes());
  } else {
    write_span(matrix.q16().data(), matrix.q16().size_bytes());
  }
  if (!out) return Status::DataLoss("short write to " + path);
  return Status::Ok();
}

StatusOr<CompactRatingMatrix> LoadCompactBinary(const std::string& path,
                                                CompactReadMode mode) {
  GF_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  const std::byte* bytes = file.data();
  const std::size_t size = file.size();
  if (size < kCompactHeaderBytes) {
    return Status::InvalidArgument("truncated GFCM header in " + path);
  }
  if (std::memcmp(bytes, kCompactMagic, sizeof(kCompactMagic)) != 0) {
    return Status::InvalidArgument("bad GFCM magic in " + path);
  }
  const auto read_at = [bytes](std::size_t offset, auto* out) {
    std::memcpy(out, bytes + offset, sizeof(*out));
  };
  std::uint32_t version = 0;
  std::uint32_t num_users = 0;
  std::uint32_t num_items = 0;
  double scale_min = 0.0;
  double scale_max = 0.0;
  std::uint64_t num_ratings = 0;
  std::uint8_t rating_bits = 0;
  std::uint8_t item_bits = 0;
  std::uint32_t intervals = 0;
  read_at(4, &version);
  read_at(8, &num_users);
  read_at(12, &num_items);
  read_at(16, &scale_min);
  read_at(24, &scale_max);
  read_at(32, &num_ratings);
  read_at(40, &rating_bits);
  read_at(41, &item_bits);
  read_at(44, &intervals);
  if (version != kCompactVersion) {
    return Status::InvalidArgument(
        common::StrFormat("unsupported GFCM version %u in %s", version,
                          path.c_str()));
  }
  if (rating_bits != 8 && rating_bits != 16) {
    return Status::InvalidArgument(
        common::StrFormat("bad GFCM rating width %u", rating_bits));
  }
  if (item_bits != 16 && item_bits != 32) {
    return Status::InvalidArgument(
        common::StrFormat("bad GFCM item width %u", item_bits));
  }
  const std::uint32_t grid_cap = rating_bits == 8 ? 255 : 65535;
  if (intervals == 0 || intervals > grid_cap) {
    return Status::InvalidArgument(
        common::StrFormat("GFCM intervals %u outside [1, %u]", intervals,
                          grid_cap));
  }
  if (num_users > (1u << 30) || num_items > (1u << 30)) {
    return Status::InvalidArgument("implausible GFCM dimensions");
  }
  // Each cell takes at least 3 bytes; an entry count beyond the file size
  // is corrupt, and rejecting it first keeps the size arithmetic below
  // overflow-free.
  if (num_ratings > size) {
    return Status::InvalidArgument("GFCM entry count exceeds file size");
  }
  const std::uint64_t cell_bytes =
      static_cast<std::uint64_t>(item_bits / 8 + rating_bits / 8);
  const std::uint64_t expected =
      kCompactHeaderBytes +
      (static_cast<std::uint64_t>(num_users) + 1) * sizeof(std::uint64_t) +
      num_ratings * cell_bytes;
  if (expected != size) {
    return Status::InvalidArgument(common::StrFormat(
        "GFCM size mismatch in %s: header implies %llu bytes, file has %zu",
        path.c_str(), static_cast<unsigned long long>(expected), size));
  }

  CompactRatingMatrix out;
  out.num_items_ = static_cast<std::int32_t>(num_items);
  out.scale_ = RatingScale{scale_min, scale_max};
  out.quant_.rating_bits = rating_bits;
  out.quant_.intervals = static_cast<std::int32_t>(intervals);
  out.quant_.range = scale_max - scale_min;
  out.item_bits_ = item_bits;

  const std::size_t offsets_count = static_cast<std::size_t>(num_users) + 1;
  const std::byte* offsets_ptr = bytes + kCompactHeaderBytes;
  const std::byte* items_ptr =
      offsets_ptr + offsets_count * sizeof(std::uint64_t);
  const std::byte* q_ptr =
      items_ptr + static_cast<std::size_t>(num_ratings) * (item_bits / 8);
  const auto cells = static_cast<std::size_t>(num_ratings);

  if (mode == CompactReadMode::kMmap) {
    // Zero-copy: the spans alias the mapping, which the matrix keeps alive.
    out.row_offsets_ = {reinterpret_cast<const std::uint64_t*>(offsets_ptr),
                        offsets_count};
    if (item_bits == 16) {
      out.items16_ = {reinterpret_cast<const std::uint16_t*>(items_ptr),
                      cells};
    } else {
      out.items32_ = {reinterpret_cast<const ItemId*>(items_ptr), cells};
    }
    if (rating_bits == 8) {
      out.q8_ = {reinterpret_cast<const QRating8*>(q_ptr), cells};
    } else {
      out.q16_ = {reinterpret_cast<const QRating16*>(q_ptr), cells};
    }
    out.mapping_ = std::make_shared<const MmapFile>(std::move(file));
  } else {
    const auto* offsets64 =
        reinterpret_cast<const std::uint64_t*>(offsets_ptr);
    out.own_offsets_.assign(offsets64, offsets64 + offsets_count);
    if (item_bits == 16) {
      const auto* items = reinterpret_cast<const std::uint16_t*>(items_ptr);
      out.own_items16_.assign(items, items + cells);
    } else {
      const auto* items = reinterpret_cast<const ItemId*>(items_ptr);
      out.own_items32_.assign(items, items + cells);
    }
    if (rating_bits == 8) {
      const auto* q = reinterpret_cast<const QRating8*>(q_ptr);
      out.own_q8_.assign(q, q + cells);
    } else {
      const auto* q = reinterpret_cast<const QRating16*>(q_ptr);
      out.own_q16_.assign(q, q + cells);
    }
    out.BindOwnedStorage();
  }
  GF_RETURN_IF_ERROR(out.ValidateLayout());
  return out;
}

}  // namespace groupform::data
