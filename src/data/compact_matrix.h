#ifndef GROUPFORM_DATA_COMPACT_MATRIX_H_
#define GROUPFORM_DATA_COMPACT_MATRIX_H_

// The compact quantized instance backend (DESIGN.md §14): the same
// immutable user-item CSR substrate as RatingMatrix, stored as
// structure-of-arrays with narrow cells — a contiguous item-id stream
// (uint16 when the catalogue fits, else int32) and a separate quantized
// rating stream (int8 or int16 with a per-matrix scale/offset) — so
// million-user instances fit in a fraction of the dense footprint and
// row scans become branch-light loops over same-width cells. The storage can be heap-owned or a zero-copy view
// into an mmap-ed GFCM file (data/binary_io.h), which is how
// groupform_serverd serves instances far larger than its cache budget.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "data/mmap_file.h"
#include "data/rating_matrix.h"

namespace groupform::data {

/// Quantized rating cell types. Cells are stored *biased* (zero point at
/// the signed minimum) so the streams are plain int8/int16 arrays; the
/// unbiased grid index is q - kQ8ZeroPoint (resp. kQ16ZeroPoint).
using QRating8 = std::int8_t;
using QRating16 = std::int16_t;
inline constexpr int kQ8ZeroPoint = -128;
inline constexpr int kQ16ZeroPoint = -32768;

/// Compact-cell layout contract: these widths are what the ≥4× bytes/user
/// reduction over the 16-byte dense RatingEntry is built on. A layout
/// regression (padding, type drift) fails the build here, not in a bench.
static_assert(sizeof(QRating8) == 1, "int8 rating cells must be 1 byte");
static_assert(sizeof(QRating16) == 2, "int16 rating cells must be 2 bytes");
static_assert(sizeof(std::uint16_t) == 2 && sizeof(ItemId) == 4,
              "item streams must be 2 (narrow) or 4 (wide) bytes per cell");
/// Bytes per (item, qrating) cell pair by layout, SoA summed.
inline constexpr std::int64_t kCellBytesItem16Q8 = 3;
inline constexpr std::int64_t kCellBytesItem16Q16 = 4;
inline constexpr std::int64_t kCellBytesItem32Q8 = 5;
inline constexpr std::int64_t kCellBytesItem32Q16 = 6;

/// How LoadCompactBinary materialises a GFCM file: read into owned heap
/// vectors, or map it and serve zero-copy straight from the page cache.
enum class CompactReadMode { kInMemory, kMmap };

/// What an mmap-backed instance charges the serving cache: a fixed
/// bookkeeping constant covering the matrix object, the mapping record,
/// and the kernel VMA — never the payload, whose pages belong to the OS
/// page cache (DESIGN.md §14.3).
inline constexpr std::int64_t kMmapResidentOverheadBytes = 4096;

class CompactRatingMatrix;
common::StatusOr<CompactRatingMatrix> LoadCompactBinary(
    const std::string& path, CompactReadMode mode);

/// Per-matrix affine quantization over the rating scale [min, max].
///
/// The unbiased grid is q ∈ [0, intervals] with
///   dequantize(q) = min + (q * range) / intervals,
/// i.e. scale/offset quantization with offset = scale.min and step =
/// range / intervals. `intervals` is the largest value the cell width
/// allows that is also a multiple of the range whenever the range is a
/// small positive integer — so every rating on the scale's integer grid
/// (the paper's explicit 1..5 feedback, every checked-in example, the
/// integer synthetic generators) quantizes and dequantizes EXACTLY, and
/// top-k orderings on those instances are identical to dense, not merely
/// close. Arbitrary fractional ratings round-trip within
/// max_roundtrip_error() = step/2 ≤ range / 2^(bits-1), the documented
/// tolerance (DESIGN.md §14.2).
struct Quantization {
  int rating_bits = 8;  // 8 or 16: the stored cell width
  std::int32_t intervals = 1;
  double range = 0.0;  // scale.max - scale.min, frozen at build time

  /// The grid for `scale` at the given cell width (8 or 16).
  static Quantization For(const RatingScale& scale, int rating_bits);

  double step() const {
    return intervals > 0 ? range / static_cast<double>(intervals) : 0.0;
  }
  /// The documented round-trip tolerance: |r - dequantize(quantize(r))|
  /// never exceeds this for in-scale r.
  double max_roundtrip_error() const { return step() / 2.0; }

  /// Unbiased grid index of `rating`, clamped to [0, intervals].
  std::int32_t Quantize(double scale_min, Rating rating) const;

  /// Inverse of Quantize on the grid. The (q * range) / intervals form —
  /// rather than q * step — is what makes integer-grid round trips exact:
  /// both operands are exact small integers times the range, so the IEEE
  /// division yields the integer quotient with no representation error.
  double Dequantize(double scale_min, std::int32_t unbiased) const {
    if (intervals <= 0) return scale_min;
    return scale_min +
           (static_cast<double>(unbiased) * range) /
               static_cast<double>(intervals);
  }

  friend bool operator==(const Quantization&, const Quantization&) = default;
};

/// Immutable quantized CSR rating matrix (structure-of-arrays).
///
/// Row r of the matrix occupies the half-open cell range
/// [row_offsets[r], row_offsets[r+1]) of two parallel streams: the item
/// stream (uint16 when num_items <= 65535, else int32, sorted ascending
/// within each row) and the rating stream (int8 or int16 biased grid
/// cells). Reads go through RatingStore (data/rating_store.h) or the
/// typed accessors below; construction goes through FromMatrix
/// (quantize a dense-backed matrix) or LoadCompactBinary (GFCM file,
/// in-memory or mmap-backed zero-copy).
///
/// Move-only: the read spans alias either the owned vectors or the mmap,
/// and vector moves keep heap buffers stable while copies would not.
class CompactRatingMatrix {
 public:
  /// Quantizes `matrix` at the given rating cell width (8 or 16 bits).
  /// The item stream narrows to uint16 automatically when the catalogue
  /// fits. O(num_ratings).
  static CompactRatingMatrix FromMatrix(const RatingMatrix& matrix,
                                        int rating_bits = 8);

  CompactRatingMatrix(CompactRatingMatrix&&) noexcept = default;
  CompactRatingMatrix& operator=(CompactRatingMatrix&&) noexcept = default;
  CompactRatingMatrix(const CompactRatingMatrix&) = delete;
  CompactRatingMatrix& operator=(const CompactRatingMatrix&) = delete;

  /// Dequantizes back into the dense-backed representation (row order and
  /// item order preserved). The result equals the original matrix exactly
  /// when every rating sat on the quantization grid (integer scales), and
  /// within quant().max_roundtrip_error() per cell otherwise.
  RatingMatrix ToMatrix() const;

  std::int32_t num_users() const {
    return static_cast<std::int32_t>(row_offsets_.size()) - 1;
  }
  std::int32_t num_items() const { return num_items_; }
  std::int64_t num_ratings() const {
    return static_cast<std::int64_t>(row_offsets_.back());
  }
  const RatingScale& scale() const { return scale_; }
  const Quantization& quant() const { return quant_; }
  int rating_bits() const { return quant_.rating_bits; }
  int item_bits() const { return item_bits_; }
  bool mmap_backed() const { return mapping_ != nullptr; }

  std::size_t RowBegin(UserId user) const {
    return static_cast<std::size_t>(
        row_offsets_[static_cast<std::size_t>(user)]);
  }
  std::size_t RowEnd(UserId user) const {
    return static_cast<std::size_t>(
        row_offsets_[static_cast<std::size_t>(user) + 1]);
  }
  std::int32_t NumRatingsOf(UserId user) const {
    return static_cast<std::int32_t>(RowEnd(user) - RowBegin(user));
  }

  /// Raw streams (whichever width is active; the other is empty).
  std::span<const std::uint64_t> row_offsets() const { return row_offsets_; }
  std::span<const std::uint16_t> items16() const { return items16_; }
  std::span<const ItemId> items32() const { return items32_; }
  std::span<const QRating8> q8() const { return q8_; }
  std::span<const QRating16> q16() const { return q16_; }

  /// Dequantized rating of the cell at stream position `index`.
  Rating DequantizeCell(std::size_t index) const {
    const std::int32_t unbiased =
        rating_bits() == 8
            ? static_cast<std::int32_t>(q8_[index]) - kQ8ZeroPoint
            : static_cast<std::int32_t>(q16_[index]) - kQ16ZeroPoint;
    return quant_.Dequantize(scale_.min, unbiased);
  }
  /// Item id of the cell at stream position `index`.
  ItemId ItemAt(std::size_t index) const {
    return item_bits_ == 16 ? static_cast<ItemId>(items16_[index])
                            : items32_[index];
  }

  /// The rating of `item` by `user`, or nullopt when unobserved.
  /// O(log d_u) via binary search in the user's item-stream slice.
  std::optional<Rating> GetRating(UserId user, ItemId item) const;

  /// Calls fn(ItemId, Rating) for every cell of the user's row in item
  /// order, dequantizing on the fly. The layout dispatch happens once per
  /// row; the per-cell loop is a branch-light scan over two contiguous
  /// same-width streams.
  template <typename Fn>
  void VisitRow(UserId user, Fn&& fn) const {
    VisitCells(RowBegin(user), RowEnd(user), fn);
  }

  /// Logical payload bytes of the instance: row offsets + item stream +
  /// rating stream, independent of where they live (heap or mapping).
  std::int64_t ByteSize() const;

  /// Heap-resident bytes: equal to ByteSize() for owned storage, but only
  /// the fixed per-instance overhead for mmap-backed matrices — mapped
  /// pages belong to the OS page cache, not this process's budget, which
  /// is exactly how serve::InstanceCache charges them (DESIGN.md §14.3).
  std::int64_t ResidentBytes() const;

 private:
  friend common::StatusOr<CompactRatingMatrix> LoadCompactBinary(
      const std::string& path, CompactReadMode mode);

  CompactRatingMatrix() = default;

  /// Re-points the read spans at the owned vectors (after moves of the
  /// vectors into place).
  void BindOwnedStorage();

  /// Full CSR validation of the bound spans — offsets monotone and
  /// consistent, items in [0, num_items) and strictly ascending per row.
  /// INVALID_ARGUMENT (never a GF_CHECK abort) so untrusted GFCM bytes
  /// surface as ERR to callers. O(num_ratings).
  common::Status ValidateLayout() const;

  template <typename Fn>
  void VisitCells(std::size_t begin, std::size_t end, Fn& fn) const {
    const double scale_min = scale_.min;
    if (item_bits_ == 16) {
      if (rating_bits() == 8) {
        for (std::size_t i = begin; i < end; ++i) {
          fn(static_cast<ItemId>(items16_[i]),
             quant_.Dequantize(scale_min,
                               static_cast<std::int32_t>(q8_[i]) -
                                   kQ8ZeroPoint));
        }
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          fn(static_cast<ItemId>(items16_[i]),
             quant_.Dequantize(scale_min,
                               static_cast<std::int32_t>(q16_[i]) -
                                   kQ16ZeroPoint));
        }
      }
    } else {
      if (rating_bits() == 8) {
        for (std::size_t i = begin; i < end; ++i) {
          fn(items32_[i],
             quant_.Dequantize(scale_min,
                               static_cast<std::int32_t>(q8_[i]) -
                                   kQ8ZeroPoint));
        }
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          fn(items32_[i],
             quant_.Dequantize(scale_min,
                               static_cast<std::int32_t>(q16_[i]) -
                                   kQ16ZeroPoint));
        }
      }
    }
  }

  std::int32_t num_items_ = 0;
  RatingScale scale_;
  Quantization quant_;
  int item_bits_ = 32;

  /// Non-null when the streams alias an mmap-ed GFCM file.
  std::shared_ptr<const MmapFile> mapping_;
  /// Owned storage (empty when mmap-backed).
  std::vector<std::uint64_t> own_offsets_;
  std::vector<std::uint16_t> own_items16_;
  std::vector<ItemId> own_items32_;
  std::vector<QRating8> own_q8_;
  std::vector<QRating16> own_q16_;
  /// Read views over whichever storage backs the matrix.
  std::span<const std::uint64_t> row_offsets_;
  std::span<const std::uint16_t> items16_;
  std::span<const ItemId> items32_;
  std::span<const QRating8> q8_;
  std::span<const QRating16> q16_;
};

}  // namespace groupform::data

#endif  // GROUPFORM_DATA_COMPACT_MATRIX_H_
