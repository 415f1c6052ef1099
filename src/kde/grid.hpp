// Equirectangular density grid.
//
// Rows run south -> north, columns west -> east.  Cell height is uniform in
// latitude; cell width is uniform in *degrees* of longitude, so its physical
// width shrinks toward the poles — the KDE convolution compensates with a
// per-row kernel width, and per-row cell areas are exposed for integration.
//
// Support invariant: every row records a column range [lo, hi) outside which
// each of its cells is exactly +0.0.  A fresh grid's support is the whole
// row, so a grid filled by hand or thawed from an artifact is always
// correct; mutable access only ever widens it, and only the KDE estimator —
// which knows where its kernels reach — narrows it (restrict_support).
// max_cell, integral, find_peaks and extract_footprint walk the support
// alone, in row-major order, so their results equal a dense scan's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geo/point.hpp"
#include "util/check.hpp"

namespace eyeball::kde {

class DensityGrid {
 public:
  /// Half-open column range of one row; empty when lo == hi.
  struct RowSpan {
    std::size_t lo = 0;
    std::size_t hi = 0;

    /// Widens the span to cover columns [from, to); an empty span becomes
    /// exactly that range.
    void cover(std::size_t from, std::size_t to) noexcept {
      if (lo == hi) {
        lo = from;
        hi = to;
      } else {
        lo = std::min(lo, from);
        hi = std::max(hi, to);
      }
    }
  };

  /// Grid covering `box` with cells of roughly `cell_km` at the box's
  /// central latitude.  Throws if the box degenerates or the grid would
  /// exceed `max_cells`.
  DensityGrid(const geo::BoundingBox& box, double cell_km, std::size_t max_cells = 8000000);

  /// The geometry a grid over `box` with cells of exactly `cell_km` has,
  /// before any budget coarsening.  Rows and columns stay doubles so a
  /// caller can test them against a budget or a cap before any integer
  /// cast.  The constructor evaluates this once per candidate cell size;
  /// the artifact decoder re-derives a stored grid's shape with it.
  struct Shape {
    double rows = 0.0;
    double cols = 0.0;
    double dlat_deg = 0.0;
    double dlon_deg = 0.0;
  };
  [[nodiscard]] static Shape shape_for(const geo::BoundingBox& box,
                                       double cell_km) noexcept;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t cell_count() const noexcept { return values_.size(); }
  [[nodiscard]] const geo::BoundingBox& box() const noexcept { return box_; }
  [[nodiscard]] double cell_km() const noexcept { return cell_km_; }

  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    EYEBALL_DCHECK(row < rows_ && col < cols_, "grid read out of bounds");
    return values_[row * cols_ + col];
  }
  /// Mutable cell access; widens the row's support to cover the cell.
  [[nodiscard]] double& at(std::size_t row, std::size_t col) {
    EYEBALL_DCHECK(row < rows_ && col < cols_, "grid write out of bounds");
    support_[row].cover(col, col + 1);
    return values_[row * cols_ + col];
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  /// Mutable dense view; resets every row's support to the whole row.
  [[nodiscard]] std::span<double> mutable_values() noexcept;

  /// Columns of `row` outside which every cell is exactly +0.0.
  [[nodiscard]] RowSpan row_support(std::size_t row) const noexcept {
    EYEBALL_DCHECK(row < rows_, "row support queried out of bounds");
    return support_[row];
  }
  /// Narrows the support to one span per row.  The caller vouches that every
  /// cell outside its row's span holds +0.0 (checked when DCHECKs are on).
  void restrict_support(std::vector<RowSpan> support);

  /// Geographic center of a cell.
  [[nodiscard]] geo::GeoPoint center_of(std::size_t row, std::size_t col) const noexcept;
  /// Cell containing `p`, or nullopt when outside the box.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> cell_of(
      const geo::GeoPoint& p) const noexcept;

  /// Latitude of a row's center.
  [[nodiscard]] double row_lat(std::size_t row) const noexcept;
  /// Physical cell width at a row (km); height is constant.
  [[nodiscard]] double cell_width_km(std::size_t row) const noexcept;
  [[nodiscard]] double cell_height_km() const noexcept;
  [[nodiscard]] double cell_area_km2(std::size_t row) const noexcept;

  /// Maximum stored value and its cell, or nullopt for an all-zero grid.
  struct MaxCell {
    std::size_t row;
    std::size_t col;
    double value;
  };
  [[nodiscard]] std::optional<MaxCell> max_cell() const noexcept;

  /// Sum of value x cell area over the grid (integral of the density).
  [[nodiscard]] double integral() const noexcept;

 private:
  geo::BoundingBox box_;
  double cell_km_;
  double dlat_deg_;
  double dlon_deg_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> values_;
  std::vector<RowSpan> support_;  // one per row
};

/// One flag per support cell, numbered row-major: the visited set of the
/// flood fills in find_peaks and extract_footprint, which only ever visit
/// cells above a positive level.  Sized by the support, not the box.
class SupportFlags {
 public:
  explicit SupportFlags(const DensityGrid& grid);

  /// Sets the flag of the in-support cell (row, col); returns whether it
  /// was already set.
  [[nodiscard]] bool test_and_set(std::size_t row, std::size_t col) noexcept {
    const DensityGrid::RowSpan span = grid_.row_support(row);
    EYEBALL_DCHECK(col >= span.lo && col < span.hi, "flagged cell outside the support");
    char& flag = flags_[offsets_[row] + (col - span.lo)];
    const bool was_set = flag != 0;
    flag = 1;
    return was_set;
  }

 private:
  const DensityGrid& grid_;
  std::vector<std::size_t> offsets_;  // first flag of each row
  std::vector<char> flags_;
};

}  // namespace eyeball::kde
