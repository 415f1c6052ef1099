#include "kde/contour.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace eyeball::kde {

double Footprint::total_area_km2() const noexcept {
  double total = 0.0;
  for (const auto& p : partitions) total += p.area_km2;
  return total;
}

double Footprint::total_mass() const noexcept {
  double total = 0.0;
  for (const auto& p : partitions) total += p.mass;
  return total;
}

Footprint extract_footprint(const DensityGrid& grid, double level) {
  if (!(level > 0.0)) throw std::invalid_argument{"extract_footprint: level must be > 0"};

  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();
  const auto inside = [&](std::size_t r, std::size_t c) {
    return grid.value(r, c) >= level;
  };

  Footprint footprint;
  footprint.level = level;

  // Connected components (4-connectivity) of cells above the level.  The
  // level is positive, so every inside cell lies in the grid's support: the
  // scan and the visited set cover the support only, in the dense scan's
  // row-major order (partitions come out in the same order).
  SupportFlags visited{grid};
  for (std::size_t r = 0; r < rows; ++r) {
    const DensityGrid::RowSpan span = grid.row_support(r);
    for (std::size_t c = span.lo; c < span.hi; ++c) {
      if (!inside(r, c) || visited.test_and_set(r, c)) continue;
      FootprintPartition part;
      part.min_lat = part.max_lat = grid.center_of(r, c).lat_deg;
      part.min_lon = part.max_lon = grid.center_of(r, c).lon_deg;

      std::queue<std::pair<std::size_t, std::size_t>> frontier;
      frontier.push({r, c});
      while (!frontier.empty()) {
        const auto [cr, cc] = frontier.front();
        frontier.pop();
        const double v = grid.value(cr, cc);
        const geo::GeoPoint center = grid.center_of(cr, cc);
        ++part.cell_count;
        part.area_km2 += grid.cell_area_km2(cr);
        part.mass += v * grid.cell_area_km2(cr);
        if (v > part.peak_density) {
          part.peak_density = v;
          part.peak_location = center;
        }
        part.min_lat = std::min(part.min_lat, center.lat_deg);
        part.max_lat = std::max(part.max_lat, center.lat_deg);
        part.min_lon = std::min(part.min_lon, center.lon_deg);
        part.max_lon = std::max(part.max_lon, center.lon_deg);

        constexpr int kDr[] = {-1, 1, 0, 0};
        constexpr int kDc[] = {0, 0, -1, 1};
        for (int k = 0; k < 4; ++k) {
          const auto nr = static_cast<std::ptrdiff_t>(cr) + kDr[k];
          const auto nc = static_cast<std::ptrdiff_t>(cc) + kDc[k];
          if (nr < 0 || nr >= static_cast<std::ptrdiff_t>(rows) || nc < 0 ||
              nc >= static_cast<std::ptrdiff_t>(cols)) {
            continue;
          }
          const auto ur = static_cast<std::size_t>(nr);
          const auto uc = static_cast<std::size_t>(nc);
          if (inside(ur, uc) && !visited.test_and_set(ur, uc)) {
            frontier.push({ur, uc});
          }
        }
      }
      footprint.partitions.push_back(part);
    }
  }
  std::sort(footprint.partitions.begin(), footprint.partitions.end(),
            [](const FootprintPartition& a, const FootprintPartition& b) {
              return a.mass > b.mass;
            });

  // Marching squares: one segment per boundary crossing, linear
  // interpolation along cell edges.  (Segments are unordered; consumers
  // that need closed rings can stitch them by endpoint.)  A square emits
  // only when one of its corners is inside, i.e. in the support of row r or
  // r + 1, so each row pair walks the squares touching either span, in
  // ascending column order like the dense walk.
  const auto interpolate = [&](const geo::GeoPoint& a, double va, const geo::GeoPoint& b,
                               double vb) {
    const double t = (va == vb) ? 0.5 : (level - va) / (vb - va);
    return geo::GeoPoint{a.lat_deg + t * (b.lat_deg - a.lat_deg),
                         a.lon_deg + t * (b.lon_deg - a.lon_deg)};
  };
  for (std::size_t r = 0; r + 1 < rows; ++r) {
    DensityGrid::RowSpan span = grid.row_support(r);
    const DensityGrid::RowSpan upper = grid.row_support(r + 1);
    if (upper.lo != upper.hi) span.cover(upper.lo, upper.hi);
    if (span.lo == span.hi) continue;
    // Square c has corners c and c + 1: it touches the span when c is in
    // [lo - 1, hi), and the last square starts at cols - 2.
    for (std::size_t c = span.lo == 0 ? 0 : span.lo - 1; c < std::min(span.hi, cols - 1);
         ++c) {
      // Corners: 0 = (r,c), 1 = (r,c+1), 2 = (r+1,c+1), 3 = (r+1,c).
      const double v0 = grid.value(r, c);
      const double v1 = grid.value(r, c + 1);
      const double v2 = grid.value(r + 1, c + 1);
      const double v3 = grid.value(r + 1, c);
      const int mask = (v0 >= level ? 1 : 0) | (v1 >= level ? 2 : 0) |
                       (v2 >= level ? 4 : 0) | (v3 >= level ? 8 : 0);
      if (mask == 0 || mask == 15) continue;
      const geo::GeoPoint p0 = grid.center_of(r, c);
      const geo::GeoPoint p1 = grid.center_of(r, c + 1);
      const geo::GeoPoint p2 = grid.center_of(r + 1, c + 1);
      const geo::GeoPoint p3 = grid.center_of(r + 1, c);
      const geo::GeoPoint bottom = interpolate(p0, v0, p1, v1);
      const geo::GeoPoint right = interpolate(p1, v1, p2, v2);
      const geo::GeoPoint top = interpolate(p3, v3, p2, v2);
      const geo::GeoPoint left = interpolate(p0, v0, p3, v3);
      const auto emit = [&](const geo::GeoPoint& a, const geo::GeoPoint& b) {
        footprint.boundary.push_back({a, b});
      };
      switch (mask) {
        case 1: case 14: emit(left, bottom); break;
        case 2: case 13: emit(bottom, right); break;
        case 3: case 12: emit(left, right); break;
        case 4: case 11: emit(right, top); break;
        case 6: case 9: emit(bottom, top); break;
        case 7: case 8: emit(left, top); break;
        case 5:  // saddle: two segments
          emit(left, bottom);
          emit(right, top);
          break;
        case 10:  // saddle
          emit(bottom, right);
          emit(left, top);
          break;
        default: break;
      }
    }
  }
  return footprint;
}

Footprint extract_footprint_relative(const DensityGrid& grid, double fraction) {
  if (!(fraction > 0.0) || fraction >= 1.0) {
    throw std::invalid_argument{"extract_footprint_relative: fraction in (0,1)"};
  }
  const auto max = grid.max_cell();
  if (!max) {
    Footprint empty;
    empty.level = 0.0;
    return empty;
  }
  return extract_footprint(grid, fraction * max->value);
}

}  // namespace eyeball::kde
