// Equirectangular density grid.
//
// Rows run south -> north, columns west -> east.  Cell height is uniform in
// latitude; cell width is uniform in *degrees* of longitude, so its physical
// width shrinks toward the poles — the KDE convolution compensates with a
// per-row kernel width, and per-row cell areas are exposed for integration.
//
// Storage is the support.  Every row has one column span [lo, hi), and only
// the cells inside the spans are stored, back to back in row-major order;
// every cell outside them is +0.0 by construction.  A grid built over a box
// alone has empty spans and stores nothing; set_support() declares the
// spans and allocates exactly their cells, zeroed.  The KDE estimator works
// out where its kernels reach before it allocates, the artifact decoder
// derives the spans from the stored runs, and a grid built by hand declares
// its spans up front and writes through set().  value() and the read-only
// dense view values() answer for the whole box; max_cell, integral,
// find_peaks and extract_footprint walk the spans alone, in row-major
// order, so their results equal a dense scan's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
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
  /// central latitude, every row's span empty and no cell stored.  Throws if
  /// the box degenerates or the grid would exceed `max_cells`.
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
  /// Cells of the box, stored or not: rows() x cols().
  [[nodiscard]] std::size_t cell_count() const noexcept { return rows_ * cols_; }
  /// Cells held in storage: the sum of the span widths.
  [[nodiscard]] std::size_t stored_cells() const noexcept { return cells_.size(); }
  [[nodiscard]] const geo::BoundingBox& box() const noexcept { return box_; }
  [[nodiscard]] double cell_km() const noexcept { return cell_km_; }

  /// Declares one span per row and allocates exactly their cells, zeroed;
  /// earlier values are dropped.
  void set_support(std::span<const RowSpan> support);

  /// Columns of `row` outside which every cell is +0.0 and not stored.
  [[nodiscard]] RowSpan row_support(std::size_t row) const noexcept {
    EYEBALL_DCHECK(row < rows_, "row support queried out of bounds");
    return rows_info_[row].span;
  }
  /// The stored cells of `row`: columns row_support(row).lo onward.
  [[nodiscard]] std::span<const double> row_values(std::size_t row) const noexcept {
    EYEBALL_DCHECK(row < rows_, "row values queried out of bounds");
    const StoredRow& stored = rows_info_[row];
    return std::span{cells_}.subspan(stored.offset, stored.span.hi - stored.span.lo);
  }
  [[nodiscard]] std::span<double> row_values(std::size_t row) noexcept {
    EYEBALL_DCHECK(row < rows_, "row values queried out of bounds");
    const StoredRow& stored = rows_info_[row];
    return std::span{cells_}.subspan(stored.offset, stored.span.hi - stored.span.lo);
  }
  /// Index of the in-span cell (row, col) in storage, counted row-major
  /// over the spans alone.
  [[nodiscard]] std::size_t stored_index(std::size_t row, std::size_t col) const noexcept {
    EYEBALL_DCHECK(row < rows_, "stored index queried out of bounds");
    const StoredRow& stored = rows_info_[row];
    EYEBALL_DCHECK(col >= stored.span.lo && col < stored.span.hi,
                   "cell outside its row's span");
    return stored.offset + (col - stored.span.lo);
  }

  /// The cell's value; +0.0 outside its row's span.
  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    EYEBALL_DCHECK(row < rows_ && col < cols_, "grid read out of bounds");
    const StoredRow& stored = rows_info_[row];
    const std::size_t at = col - stored.span.lo;  // wraps below lo
    return at < stored.span.hi - stored.span.lo ? cells_[stored.offset + at] : 0.0;
  }
  /// Writes an in-span cell.
  void set(std::size_t row, std::size_t col, double v) noexcept {
    EYEBALL_DCHECK(row < rows_ && col < cols_, "grid write out of bounds");
    cells_[stored_index(row, col)] = v;
  }

  /// Read-only dense view: rows() x cols() values in row-major order, +0.0
  /// outside the spans.  Its iterators point into the grid, not the view,
  /// so begin() and end() of two views of one grid compare.
  class DenseView {
   public:
    class iterator {
     public:
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = double;
      using difference_type = std::ptrdiff_t;
      using reference = double;
      using pointer = void;

      iterator() = default;
      [[nodiscard]] double operator*() const noexcept {
        return col_ - span_.lo < span_.hi - span_.lo ? row_[col_ - span_.lo] : 0.0;
      }
      iterator& operator++() noexcept {
        if (++col_ == grid_->cols_) {
          col_ = 0;
          ++row_index_;
          load_row();
        }
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator before = *this;
        ++*this;
        return before;
      }
      [[nodiscard]] friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.row_index_ == b.row_index_ && a.col_ == b.col_;
      }

     private:
      friend class DenseView;
      iterator(const DensityGrid* grid, std::size_t row) noexcept
          : grid_(grid), row_index_(row) {
        load_row();
      }
      void load_row() noexcept {
        if (row_index_ >= grid_->rows_) return;
        span_ = grid_->rows_info_[row_index_].span;
        row_ = grid_->cells_.data() + grid_->rows_info_[row_index_].offset;
      }

      const DensityGrid* grid_ = nullptr;
      std::size_t row_index_ = 0;
      std::size_t col_ = 0;
      RowSpan span_;
      const double* row_ = nullptr;
    };

    [[nodiscard]] iterator begin() const noexcept { return {grid_, 0}; }
    [[nodiscard]] iterator end() const noexcept { return {grid_, grid_->rows_}; }
    [[nodiscard]] std::size_t size() const noexcept { return grid_->cell_count(); }

   private:
    friend class DensityGrid;
    explicit DenseView(const DensityGrid* grid) noexcept : grid_(grid) {}
    const DensityGrid* grid_;
  };
  [[nodiscard]] DenseView values() const noexcept { return DenseView{this}; }

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
  /// A row's span and the index of its first stored cell.
  struct StoredRow {
    RowSpan span;
    std::size_t offset = 0;
  };
  std::vector<StoredRow> rows_info_;  // one per row
  std::vector<double> cells_;         // the in-span cells, row-major
};

/// One flag per stored cell, indexed like the grid's storage: the visited
/// set of the flood fills in find_peaks and extract_footprint, which only
/// ever visit cells above a positive level.
class SupportFlags {
 public:
  explicit SupportFlags(const DensityGrid& grid)
      : grid_(grid), flags_(grid.stored_cells(), 0) {}

  /// Sets the flag of the in-span cell (row, col); returns whether it was
  /// already set.
  [[nodiscard]] bool test_and_set(std::size_t row, std::size_t col) noexcept {
    char& flag = flags_[grid_.stored_index(row, col)];
    const bool was_set = flag != 0;
    flag = 1;
    return was_set;
  }

 private:
  const DensityGrid& grid_;
  std::vector<char> flags_;
};

}  // namespace eyeball::kde
