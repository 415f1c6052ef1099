#include "kde/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <queue>

#include "util/check.hpp"

namespace eyeball::kde {
namespace {

/// Quadratic (3-point parabola) sub-cell offset of the extremum in one
/// dimension, clamped to half a cell.
double parabolic_offset(double left, double center, double right) noexcept {
  const double denom = left - 2.0 * center + right;
  if (std::abs(denom) < 1e-30) return 0.0;
  return std::clamp(0.5 * (left - right) / denom, -0.5, 0.5);
}

}  // namespace

std::vector<Peak> find_peaks(const DensityGrid& grid, const PeakConfig& config) {
  // Paper §4.1 keeps peaks with D > alpha * Dmax; alpha outside (0, 1] keeps
  // everything or nothing and signals a mis-wired caller, not a valid run.
  EYEBALL_DCHECK(config.alpha > 0.0 && config.alpha <= 1.0,
                 "peak threshold alpha must lie in (0, 1]");
  EYEBALL_DCHECK(config.bandwidth_km > 0.0, "peak score needs a positive bandwidth");
  const auto max = grid.max_cell();
  if (!max) return {};
  const double threshold = config.alpha * max->value;

  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();
  const auto is_candidate = [&](std::size_t r, std::size_t c) {
    const double v = grid.value(r, c);
    if (v <= 0.0 || v <= threshold) return false;
    // Local maximum: >= every 8-neighbour.
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        if (dr == 0 && dc == 0) continue;
        const auto nr = static_cast<std::ptrdiff_t>(r) + dr;
        const auto nc = static_cast<std::ptrdiff_t>(c) + dc;
        if (nr < 0 || nr >= static_cast<std::ptrdiff_t>(rows) || nc < 0 ||
            nc >= static_cast<std::ptrdiff_t>(cols)) {
          continue;
        }
        if (grid.value(static_cast<std::size_t>(nr), static_cast<std::size_t>(nc)) > v) {
          return false;
        }
      }
    }
    return true;
  };

  // Collect candidate cells and collapse plateaus: adjacent candidates with
  // (near-)equal value belong to one peak.  A candidate is positive, so the
  // scan and the visited set cover the grid's support only; the row-major
  // order of the scan, and with it the order peaks are found, is unchanged.
  SupportFlags visited{grid};
  std::vector<Peak> peaks;
  for (std::size_t r = 0; r < rows; ++r) {
    const DensityGrid::RowSpan span = grid.row_support(r);
    for (std::size_t c = span.lo; c < span.hi; ++c) {
      if (!is_candidate(r, c) || visited.test_and_set(r, c)) continue;

      // Flood over the connected plateau of candidates.
      std::queue<std::pair<std::size_t, std::size_t>> frontier;
      frontier.push({r, c});
      std::size_t best_r = r;
      std::size_t best_c = c;
      while (!frontier.empty()) {
        const auto [cr, cc] = frontier.front();
        frontier.pop();
        if (grid.value(cr, cc) > grid.value(best_r, best_c)) {
          best_r = cr;
          best_c = cc;
        }
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            const auto nr = static_cast<std::ptrdiff_t>(cr) + dr;
            const auto nc = static_cast<std::ptrdiff_t>(cc) + dc;
            if (nr < 0 || nr >= static_cast<std::ptrdiff_t>(rows) || nc < 0 ||
                nc >= static_cast<std::ptrdiff_t>(cols)) {
              continue;
            }
            const auto ur = static_cast<std::size_t>(nr);
            const auto uc = static_cast<std::size_t>(nc);
            if (is_candidate(ur, uc) && !visited.test_and_set(ur, uc)) {
              frontier.push({ur, uc});
            }
          }
        }
      }

      Peak peak;
      peak.row = best_r;
      peak.col = best_c;
      peak.density = grid.value(best_r, best_c);
      peak.score = peak.density * 2.0 * std::numbers::pi * config.bandwidth_km *
                   config.bandwidth_km;

      geo::GeoPoint location = grid.center_of(best_r, best_c);
      if (config.subcell_refinement && best_r > 0 && best_r + 1 < rows && best_c > 0 &&
          best_c + 1 < cols) {
        const double dx = parabolic_offset(grid.value(best_r, best_c - 1), peak.density,
                                           grid.value(best_r, best_c + 1));
        const double dy = parabolic_offset(grid.value(best_r - 1, best_c), peak.density,
                                           grid.value(best_r + 1, best_c));
        const geo::GeoPoint right = grid.center_of(best_r, best_c + 1);
        const geo::GeoPoint up = grid.center_of(best_r + 1, best_c);
        location.lon_deg += dx * (right.lon_deg - location.lon_deg);
        location.lat_deg += dy * (up.lat_deg - location.lat_deg);
      }
      peak.location = location;
      peaks.push_back(peak);
    }
  }

  // Total order: density descending, exact ties (plateaus collapsed to
  // different cells, symmetric grids) broken by grid position.  A
  // density-only comparator leaves equal-density peaks in
  // implementation-defined relative order — std::sort is not stable — which
  // breaks the byte-identical determinism contract across standard
  // libraries.
  std::sort(peaks.begin(), peaks.end(), [](const Peak& a, const Peak& b) {
    if (a.density != b.density) return a.density > b.density;
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  });
  return peaks;
}

}  // namespace eyeball::kde
