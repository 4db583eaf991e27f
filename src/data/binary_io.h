#ifndef GROUPFORM_DATA_BINARY_IO_H_
#define GROUPFORM_DATA_BINARY_IO_H_

#include <string>

#include "common/status.h"
#include "data/compact_matrix.h"

namespace groupform::data {

/// Versioned on-disk snapshot of a CompactRatingMatrix — the serving
/// artifact for instances too large to parse or hold dense
/// (DESIGN.md §14.3).
///
/// GFCM v1 (little-endian, fixed-width, 64-byte header):
///   magic        "GFCM" (4 bytes)
///   version      u32 (currently 1)
///   num_users    u32, num_items u32
///   scale_min    f64, scale_max f64
///   num_ratings  u64
///   rating_bits  u8 (8|16), item_bits u8 (16|32), reserved u16
///   intervals    u32 (quantization grid, see data::Quantization)
///   reserved     16 zero bytes (header padded to 64)
///   row_offsets  u64[num_users + 1]
///   items        u16|u32[num_ratings]   (CSR order, sorted per row)
///   qratings     i8|i16[num_ratings]    (biased grid cells)
/// Section order and the 64-byte header keep every stream naturally
/// aligned in a page-aligned mapping, so CompactReadMode::kMmap serves
/// the streams zero-copy straight from the mapped file.
///
/// Loading fully validates the header and the CSR invariants before any
/// cell is served: a missing file is NOT_FOUND; anything malformed —
/// truncated, oversized, bad magic/version/width, unsorted or
/// out-of-range cells — is INVALID_ARGUMENT, never a GF_CHECK abort.
common::Status SaveCompactBinary(const CompactRatingMatrix& matrix,
                                 const std::string& path);

common::StatusOr<CompactRatingMatrix> LoadCompactBinary(
    const std::string& path, CompactReadMode mode);

}  // namespace groupform::data

#endif  // GROUPFORM_DATA_BINARY_IO_H_
