#include "kde/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eyeball::kde {

DensityGrid::Shape DensityGrid::shape_for(const geo::BoundingBox& box,
                                          double cell_km) noexcept {
  const double mid_lat = (box.min_lat() + box.max_lat()) / 2.0;
  const double lon_scale = std::max(1.0, geo::km_per_degree_lon(mid_lat));
  Shape shape;
  shape.dlat_deg = cell_km / geo::kKmPerDegreeLat;
  shape.dlon_deg = cell_km / lon_scale;
  shape.rows = std::max(1.0, std::ceil((box.max_lat() - box.min_lat()) / shape.dlat_deg));
  shape.cols = std::max(1.0, std::ceil((box.max_lon() - box.min_lon()) / shape.dlon_deg));
  return shape;
}

DensityGrid::DensityGrid(const geo::BoundingBox& box, double cell_km,
                         std::size_t max_cells)
    : box_(box), cell_km_(cell_km) {
  if (!(cell_km > 0.0)) throw std::invalid_argument{"DensityGrid: cell_km must be > 0"};

  // Grow the cell size if the requested resolution would blow the budget.
  // The budget comparison happens in double, before any float->int cast: a
  // tiny cell_km can make rows*cols exceed SIZE_MAX, and casting such a
  // value to size_t is undefined behaviour.
  for (;;) {
    const Shape shape = shape_for(box, cell_km_);
    if (shape.rows * shape.cols <= static_cast<double>(max_cells)) {
      rows_ = static_cast<std::size_t>(shape.rows);
      cols_ = static_cast<std::size_t>(shape.cols);
      dlat_deg_ = shape.dlat_deg;
      dlon_deg_ = shape.dlon_deg;
      break;
    }
    cell_km_ *= 1.5;
  }
  EYEBALL_DCHECK(rows_ * cols_ <= max_cells, "cell budget violated after coarsening");
  rows_info_.assign(rows_, StoredRow{});
}

void DensityGrid::set_support(std::span<const RowSpan> support) {
  EYEBALL_DCHECK(support.size() == rows_, "support needs one span per row");
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const RowSpan span = support[r];
    EYEBALL_DCHECK(span.lo <= span.hi && span.hi <= cols_, "support span out of bounds");
    rows_info_[r] = {span, total};
    total += span.hi - span.lo;
  }
  cells_.assign(total, 0.0);
}

geo::GeoPoint DensityGrid::center_of(std::size_t row, std::size_t col) const noexcept {
  EYEBALL_DCHECK(row < rows_ && col < cols_, "cell center queried out of bounds");
  return {box_.min_lat() + (static_cast<double>(row) + 0.5) * dlat_deg_,
          box_.min_lon() + (static_cast<double>(col) + 0.5) * dlon_deg_};
}

std::optional<std::pair<std::size_t, std::size_t>> DensityGrid::cell_of(
    const geo::GeoPoint& p) const noexcept {
  if (!box_.contains(p)) return std::nullopt;
  auto row = static_cast<std::size_t>((p.lat_deg - box_.min_lat()) / dlat_deg_);
  auto col = static_cast<std::size_t>((p.lon_deg - box_.min_lon()) / dlon_deg_);
  row = std::min(row, rows_ - 1);
  col = std::min(col, cols_ - 1);
  return std::make_pair(row, col);
}

double DensityGrid::row_lat(std::size_t row) const noexcept {
  EYEBALL_DCHECK(row < rows_, "row latitude queried out of bounds");
  return box_.min_lat() + (static_cast<double>(row) + 0.5) * dlat_deg_;
}

double DensityGrid::cell_width_km(std::size_t row) const noexcept {
  return dlon_deg_ * geo::km_per_degree_lon(row_lat(row));
}

double DensityGrid::cell_height_km() const noexcept {
  return dlat_deg_ * geo::kKmPerDegreeLat;
}

double DensityGrid::cell_area_km2(std::size_t row) const noexcept {
  return cell_width_km(row) * cell_height_km();
}

std::optional<DensityGrid::MaxCell> DensityGrid::max_cell() const noexcept {
  // First maximum in row-major order, like std::max_element over the dense
  // values: the cells skipped outside the support are +0.0, so they can
  // neither beat nor tie a positive maximum.
  std::optional<MaxCell> best;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::span<const double> row = row_values(r);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!best || best->value < row[i]) best = MaxCell{r, rows_info_[r].span.lo + i, row[i]};
    }
  }
  if (!best || best->value <= 0.0) return std::nullopt;
  return best;
}

double DensityGrid::integral() const noexcept {
  // Skipped cells add exactly +0.0 to a sum that can never be -0.0.
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::span<const double> row = row_values(r);
    if (row.empty()) continue;
    double row_sum = 0.0;
    for (const double v : row) row_sum += v;
    total += row_sum * cell_area_km2(r);
  }
  return total;
}

}  // namespace eyeball::kde
