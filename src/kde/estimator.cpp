#include "kde/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kde/convolve.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace eyeball::kde {
namespace {

/// Dense per-row kernel table: every distinct quantized kernel's taps live
/// back-to-back in one arena and `row_kernels` maps a grid row to its
/// (offset, tap-count) slice — no node-per-kernel allocations, no tree walk
/// per row, and the parallel passes read one flat const structure.
///
/// Concurrency contract: build-then-freeze.  build_row_kernels() fills the
/// arena on the calling thread; estimate() binds the result to a `const`
/// local BEFORE any parallel_for, so worker lambdas can only ever see an
/// immutable arena — the contract is enforced by the type system (no
/// non-const access exists inside the parallel region), which is why this
/// carries no capability annotation.  The mutable state of the passes is
/// the grid itself, which the workers share deliberately but write in
/// disjoint rows and column tiles, plus per-chunk run and band buffers.
struct KernelArena {
  struct Slice {
    std::size_t offset = 0;
    std::size_t taps = 0;
  };
  std::vector<double> arena;
  std::vector<Slice> row_kernels;  // indexed by grid row

  [[nodiscard]] const double* taps_of(std::size_t row) const noexcept {
    return arena.data() + row_kernels[row].offset;
  }
  [[nodiscard]] std::size_t tap_count(std::size_t row) const noexcept {
    return row_kernels[row].taps;
  }
};

/// Builds the per-row kernel set (see detail::row_sigma_cells for the
/// quantization).  Each distinct sigma's taps are computed once into the
/// arena.
KernelArena build_row_kernels(const DensityGrid& grid, double bandwidth_km,
                              double truncate_sigmas) {
  const std::size_t rows = grid.rows();
  std::vector<double> sigmas(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    sigmas[r] = detail::row_sigma_cells(grid, r, bandwidth_km);
  }
  std::vector<double> unique = sigmas;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  KernelArena out;
  std::vector<KernelArena::Slice> slices(unique.size());
  for (std::size_t k = 0; k < unique.size(); ++k) {
    const auto taps = detail::gaussian_taps(unique[k], truncate_sigmas);
    slices[k] = {out.arena.size(), taps.size()};
    out.arena.insert(out.arena.end(), taps.begin(), taps.end());
  }
  out.row_kernels.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto it = std::lower_bound(unique.begin(), unique.end(), sigmas[r]);
    out.row_kernels[r] =
        slices[static_cast<std::size_t>(std::distance(unique.begin(), it))];
  }
  return out;
}

/// The horizontal pass's work list: per grid row, its disjoint output
/// column runs in ascending order (row r's runs are
/// spans[begin[r] .. begin[r + 1])).
struct RowRuns {
  std::vector<DensityGrid::RowSpan> spans;
  std::vector<std::size_t> begin;  // rows + 1 offsets into spans

  [[nodiscard]] std::span<const DensityGrid::RowSpan> of(std::size_t row) const noexcept {
    return std::span{spans}.subspan(begin[row], begin[row + 1] - begin[row]);
  }
  /// True when one of the row's runs overlaps columns [lo, hi).
  [[nodiscard]] bool reach(std::size_t row, std::size_t lo, std::size_t hi) const noexcept {
    for (const auto& span : of(row)) {
      if (span.lo >= hi) return false;
      if (span.hi > lo) return true;
    }
    return false;
  }
};

/// The points' counts on `geometry`'s cells, stored over each row's
/// occupied columns alone; `used` is how many points fell inside the box.
DensityGrid bin_points(const DensityGrid& geometry, std::span<const geo::GeoPoint> points,
                       std::size_t& used) {
  DensityGrid binned = geometry;
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  cells.reserve(points.size());
  std::vector<DensityGrid::RowSpan> occupied(geometry.rows());
  for (const auto& p : points) {
    if (const auto cell = geometry.cell_of(p)) {
      cells.push_back(*cell);
      occupied[cell->first].cover(cell->second, cell->second + 1);
    }
  }
  binned.set_support(occupied);
  for (const auto& [r, c] : cells) {
    binned.row_values(r)[c - binned.row_support(r).lo] += 1.0;
  }
  used = cells.size();
  return binned;
}

/// Output runs of the horizontal pass over the binned counts: each row's
/// nonzero cells grouped into clusters, split where two nonzero cells are
/// more than two kernel radii apart (their widened outputs cannot meet),
/// each cluster widened by the row's radius and clipped to the row.  Within
/// one radius outside a run every input cell is zero.  `binned` stores each
/// row's occupied columns, whose first and last cells are nonzero.
RowRuns horizontal_runs(const DensityGrid& binned, const KernelArena& kernels) {
  RowRuns out;
  out.begin.reserve(binned.rows() + 1);
  for (std::size_t r = 0; r < binned.rows(); ++r) {
    out.begin.push_back(out.spans.size());
    const std::span<const double> row = binned.row_values(r);
    if (row.empty()) continue;
    const std::size_t lo = binned.row_support(r).lo;
    const std::size_t radius = kernels.tap_count(r) / 2;
    const auto emit = [&](std::size_t first, std::size_t last) {
      out.spans.push_back({lo + first >= radius ? lo + first - radius : 0,
                           std::min(binned.cols(), lo + last + 1 + radius)});
    };
    std::size_t first = 0;  // binned, hence nonzero
    std::size_t last = 0;
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i] == 0.0) continue;
      if (i - last > 2 * radius) {
        emit(first, last);
        first = i;
      }
      last = i;
    }
    emit(first, last);
  }
  out.begin.push_back(out.spans.size());
  return out;
}

}  // namespace

namespace detail {

std::vector<double> gaussian_taps(double sigma_cells, double truncate_sigmas) {
  EYEBALL_DCHECK(sigma_cells > 0.0, "kernel sigma must be positive (NaN taps otherwise)");
  const auto radius = static_cast<std::size_t>(std::ceil(sigma_cells * truncate_sigmas));
  std::vector<double> taps(2 * radius + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double x = (static_cast<double>(i) - static_cast<double>(radius)) / sigma_cells;
    taps[i] = std::exp(-0.5 * x * x);
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;
  return taps;
}

double row_sigma_cells(const DensityGrid& grid, std::size_t row, double bandwidth_km) {
  const double sigma_cells = bandwidth_km / std::max(1e-6, grid.cell_width_km(row));
  return static_cast<double>(std::max(1L, std::lround(sigma_cells * 64.0))) / 64.0;
}

/// Contiguous (stride-1) 1-D convolution with the edge-clipped prologue and
/// epilogue peeled off: the interior runs a branchless dot product the
/// compiler can unroll and vectorize.  Taps that fall outside the range are
/// dropped (edge mass is clipped; the caller pads the domain so real mass
/// never sits near the edge).  For every output cell the taps accumulate in
/// ascending index order — exactly the order of the pre-SoA scalar loop —
/// so results are bit-identical to the reference convolution
/// (tests/kde_simd_test.cpp pins this differentially).
void convolve_row(const double* src, double* dst, std::size_t n, const double* taps,
                  std::size_t tap_count) {
  const std::size_t radius = tap_count / 2;
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sradius = static_cast<std::ptrdiff_t>(radius);

  // The row is processed in blocks of kRowTile outputs sharing one tap loop
  // with independent accumulators: a single output's tap sum is a serial
  // dependence chain (one add per cycle at best, and un-vectorizable
  // without reassociation), while kRowTile interleaved chains pipeline and
  // vectorize as unit-stride loads.  Each accumulator still sums its taps
  // in ascending index order, so every variant below is bit-identical to
  // the one-output-at-a-time reference loop.
  constexpr std::size_t kRowTile = kConvolveTile;

  // Full tile of outputs [i0, i0+kRowTile) with edge clipping: each tap's
  // valid output sub-range is contiguous, so clipping clamps the inner
  // loop's bounds instead of branching per cell, and the body stays the
  // same vectorizable unit-stride accumulate as the interior tile.
  auto clipped_tile = [&](std::size_t i0) {
    double acc[kRowTile] = {};
    for (std::size_t k = 0; k < tap_count; ++k) {
      const auto shift =
          static_cast<std::ptrdiff_t>(i0 + k) - sradius;  // src index of j=0
      if (shift >= sn) break;  // later taps shift further right; none valid
      const std::size_t j_lo =
          shift < 0 ? static_cast<std::size_t>(-shift) : 0;
      const std::size_t j_hi =
          std::min(kRowTile, static_cast<std::size_t>(sn - shift));
      const double t = taps[k];
      const double* s = src + shift;
      for (std::size_t j = j_lo; j < j_hi; ++j) acc[j] += s[j] * t;
    }
    double* d = dst + i0;
    for (std::size_t j = 0; j < kRowTile; ++j) d[j] = acc[j];
  };

  // Scalar fallback for the final partial tile (and degenerate rows).
  auto clipped = [&](std::ptrdiff_t i) {
    double acc = 0.0;
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - sradius);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(sn - 1, i + sradius);
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      acc += src[j] * taps[j - i + sradius];
    }
    dst[i] = acc;
  };

  const std::size_t interior_lo = std::min(radius, n);
  const std::size_t interior_hi = n > radius ? n - radius : interior_lo;
  std::size_t i = 0;
  // Leading clipped region, in full tiles (a tile may spill into the
  // interior; the clamped bounds make that exact, not just safe).
  for (; i + kRowTile <= n && i < interior_lo; i += kRowTile) clipped_tile(i);
  if (i >= interior_lo && i + kRowTile <= interior_hi) {
    // Interior: full support, no bounds checks in the inner loop.
    for (; i + kRowTile <= interior_hi; i += kRowTile) {
      double acc[kRowTile] = {};
      const double* s = src + (i - radius);
      for (std::size_t k = 0; k < tap_count; ++k) {
        const double t = taps[k];
        for (std::size_t j = 0; j < kRowTile; ++j) acc[j] += s[k + j] * t;
      }
      double* d = dst + i;
      for (std::size_t j = 0; j < kRowTile; ++j) d[j] = acc[j];
    }
  }
  // Trailing clipped region, in full tiles while they fit.
  for (; i + kRowTile <= n; i += kRowTile) clipped_tile(i);
  for (auto si = static_cast<std::ptrdiff_t>(i); si < sn; ++si) clipped(si);
}

/// Vertical (cross-row) convolution over a tile of `width <= kConvolveTile`
/// adjacent columns starting at `col`.  Instead of striding down one column
/// at a time (a cache-hostile `cols`-stride walk repeated per column), the
/// tap loop is outermost and each step reads `width` contiguous values from
/// one source row — unit-stride loads the compiler turns into SIMD —
/// accumulating all `width` columns at once.  Per output cell the taps
/// still accumulate in ascending row order, i.e. the exact summation order
/// of the reference column walk, so the pass stays bit-identical.
/// `Width` is a compile-time constant (kConvolveTile for full tiles, or the
/// runtime remainder funneled through the scalar-width overload below):
/// constant trip counts are what let the compiler fully unroll the
/// accumulator loops and keep `acc` in vector registers — a runtime bound
/// here costs ~2x (measured; the vectorizer falls back to a peeled loop
/// with in-memory accumulators).
template <std::size_t Width>
void convolve_columns_fixed(const double* src, double* dst, std::size_t rows,
                            std::size_t cols, std::size_t col, const double* taps,
                            std::size_t tap_count) {
  const std::size_t radius = tap_count / 2;
  const auto srows = static_cast<std::ptrdiff_t>(rows);
  const auto sradius = static_cast<std::ptrdiff_t>(radius);

  auto clipped_row = [&](std::ptrdiff_t i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - sradius);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(srows - 1, i + sradius);
    double acc[Width] = {};
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      const double t = taps[j - i + sradius];
      const double* s = src + static_cast<std::size_t>(j) * cols + col;
      for (std::size_t c = 0; c < Width; ++c) acc[c] += s[c] * t;
    }
    double* d = dst + static_cast<std::size_t>(i) * cols + col;
    for (std::size_t c = 0; c < Width; ++c) d[c] = acc[c];
  };

  if (rows <= 2 * radius) {
    for (std::ptrdiff_t i = 0; i < srows; ++i) clipped_row(i);
    return;
  }
  for (std::ptrdiff_t i = 0; i < sradius; ++i) clipped_row(i);
  for (std::size_t i = radius; i < rows - radius; ++i) {
    const double* s = src + (i - radius) * cols + col;
    double acc[Width] = {};
    for (std::size_t k = 0; k < tap_count; ++k) {
      const double t = taps[k];
      for (std::size_t c = 0; c < Width; ++c) acc[c] += s[c] * t;
      s += cols;
    }
    double* d = dst + i * cols + col;
    for (std::size_t c = 0; c < Width; ++c) d[c] = acc[c];
  }
  for (std::ptrdiff_t i = srows - sradius; i < srows; ++i) clipped_row(i);
}

void convolve_columns_tile(const double* src, double* dst, std::size_t rows,
                           std::size_t cols, std::size_t col, std::size_t width,
                           const double* taps, std::size_t tap_count) {
  if (width == kConvolveTile) {
    convolve_columns_fixed<kConvolveTile>(src, dst, rows, cols, col, taps, tap_count);
    return;
  }
  // Remainder tile (grid edge): one column at a time.  Cache-hostile but
  // bounded by one tile's worth of columns per grid.
  for (std::size_t c = col; c < col + width; ++c) {
    convolve_columns_fixed<1>(src, dst, rows, cols, c, taps, tap_count);
  }
}

}  // namespace detail

KernelDensityEstimator::KernelDensityEstimator(KdeConfig config) : config_(config) {
  if (!(config_.bandwidth_km > 0.0)) {
    throw std::invalid_argument{"KernelDensityEstimator: bandwidth must be > 0"};
  }
  if (!(config_.cell_km > 0.0)) {
    throw std::invalid_argument{"KernelDensityEstimator: cell size must be > 0"};
  }
  if (config_.cell_km > config_.bandwidth_km / 2.0) {
    // Keep at least two cells per sigma so peaks are resolved.
    config_.cell_km = config_.bandwidth_km / 2.0;
  }
  if (!(config_.truncate_sigmas >= 1.0)) {
    throw std::invalid_argument{"KernelDensityEstimator: truncate_sigmas must be >= 1"};
  }
}

geo::BoundingBox KernelDensityEstimator::padded_box(std::span<const geo::GeoPoint> points,
                                                    double extra_margin_km) const {
  const auto raw = geo::BoundingBox::around(points);
  return raw.expanded_km(config_.bandwidth_km * config_.truncate_sigmas + extra_margin_km);
}

DensityGrid KernelDensityEstimator::estimate(std::span<const geo::GeoPoint> points,
                                             const geo::BoundingBox& box) const {
  if (points.empty()) {
    throw std::invalid_argument{"KernelDensityEstimator::estimate: no points"};
  }
  DensityGrid grid{box, config_.cell_km, config_.max_cells};
  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();

  // Both passes below run only where their output can be nonzero (see
  // DESIGN.md "Sparse support"), and the grid stores only those cells.
  // Every count and every tap is non-negative, so each term a pass skips
  // would add exactly +0.0 to a sum that is never -0.0: the sparse passes
  // are bit-identical to convolving the whole box.
  //
  // The whole quantized kernel set is built up front into one flat arena so
  // the parallel regions only read const data — no locking.
  const KernelArena kernels =
      build_row_kernels(grid, config_.bandwidth_km, config_.truncate_sigmas);
  const auto vertical = detail::gaussian_taps(
      config_.bandwidth_km / grid.cell_height_km(), config_.truncate_sigmas);
  const std::size_t vradius = vertical.size() / 2;

  std::size_t used = 0;
  RowRuns runs;
  {
    const DensityGrid binned = bin_points(grid, points, used);
    if (used == 0) {
      throw std::invalid_argument{"KernelDensityEstimator::estimate: no points inside box"};
    }
    runs = horizontal_runs(binned, kernels);

    // The result's support: a row's output can be nonzero only in columns
    // some horizontal run within one vertical radius covers.  It holds every
    // row's own runs, hence its binned cells, and is all the grid stores.
    std::vector<DensityGrid::RowSpan> support(rows);
    for (std::size_t j = 0; j < rows; ++j) {
      const auto row_runs = runs.of(j);
      if (row_runs.empty()) continue;
      const std::size_t lo = row_runs.front().lo;
      const std::size_t hi = row_runs.back().hi;
      for (std::size_t r = j >= vradius ? j - vradius : 0;
           r < std::min(rows, j + vradius + 1); ++r) {
        support[r].cover(lo, hi);
      }
    }
    grid.set_support(support);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const double> counts = binned.row_values(r);
      if (counts.empty()) continue;
      std::copy(counts.begin(), counts.end(),
                grid.row_values(r)
                    .subspan(binned.row_support(r).lo - grid.row_support(r).lo)
                    .begin());
    }
  }

  auto& pool = util::ThreadPool::shared();
  const std::size_t ways =
      config_.threads == 0 ? pool.worker_count() : config_.threads;

  // Horizontal pass, in place: per-row kernel width (cells shrink toward
  // the poles), one convolution per run through a run-sized buffer.  A run
  // reads only its own columns, and the cells just outside it, up to one
  // radius away, are zero by construction of the runs, so the clipping at
  // the run's edges drops only zero terms.  Afterwards the grid holds the
  // horizontal result, zero outside the runs.
  pool.parallel_for(
      0, rows,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> out;
        for (std::size_t r = lo; r < hi; ++r) {
          const std::span<double> row = grid.row_values(r);
          const std::size_t row_lo = grid.row_support(r).lo;
          for (const auto& span : runs.of(r)) {
            double* run = row.data() + (span.lo - row_lo);
            out.resize(span.hi - span.lo);
            detail::convolve_row(run, out.data(), out.size(), kernels.taps_of(r),
                                 kernels.tap_count(r));
            std::copy(out.begin(), out.end(), run);
          }
        }
      },
      ways);

  // Vertical pass, in place: constant kernel width, tiled over column
  // groups.  Within a tile, the rows whose horizontal runs reach it are
  // grouped into bands, split where two such rows are more than two radii
  // apart.  Each band, widened by the radius, is gathered into a compact
  // rows x width buffer (unit stride for convolve_columns_tile; +0.0 where
  // a row stores nothing), convolved and written back to the stored cells;
  // what falls outside a row's span is +0.0, since no run within one radius
  // reaches it.  Its clipped edges drop only rows that are zero in the
  // tile, and the widened bands of one tile never overlap.  Rows outside
  // every band are zero in the tile and stay so.  Tiles are disjoint and
  // the chunk boundaries depend only on the tile count and `ways`, so the
  // pass stays bit-identical at any thread count.
  const std::size_t tiles =
      (cols + detail::kConvolveTile - 1) / detail::kConvolveTile;
  pool.parallel_for(
      0, tiles,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<double> in;
        std::vector<double> out;
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t col = t * detail::kConvolveTile;
          const std::size_t width = std::min(detail::kConvolveTile, cols - col);
          // The stored cells of `row` inside the tile, and the tile column
          // the first of them sits in.
          const auto stored = [&](std::size_t row) -> std::pair<std::span<double>, std::size_t> {
            const DensityGrid::RowSpan span = grid.row_support(row);
            const std::size_t from = std::max(span.lo, col);
            const std::size_t to = std::min(span.hi, col + width);
            if (from >= to) return {{}, 0};
            return {grid.row_values(row).subspan(from - span.lo, to - from), from - col};
          };
          const auto band = [&](std::size_t first, std::size_t last) {
            const std::size_t top = first >= vradius ? first - vradius : 0;
            const std::size_t height = std::min(rows, last + 1 + vradius) - top;
            in.resize(height * width);
            out.resize(height * width);
            for (std::size_t i = 0; i < height; ++i) {
              const auto [cells, at] = stored(top + i);
              double* const row = in.data() + i * width;
              std::fill(row, row + at, 0.0);
              std::copy(cells.begin(), cells.end(), row + at);
              std::fill(row + at + cells.size(), row + width, 0.0);
            }
            detail::convolve_columns_tile(in.data(), out.data(), height, width, 0, width,
                                          vertical.data(), vertical.size());
            for (std::size_t i = 0; i < height; ++i) {
              const auto [cells, at] = stored(top + i);
              std::copy_n(out.data() + i * width + at, cells.size(), cells.data());
            }
          };
          bool open = false;
          std::size_t first = 0;
          std::size_t last = 0;
          for (std::size_t r = 0; r < rows; ++r) {
            if (!runs.reach(r, col, col + width)) continue;
            if (open && r - last > 2 * vradius) {
              band(first, last);
              open = false;
            }
            if (!open) {
              open = true;
              first = r;
            }
            last = r;
          }
          if (open) band(first, last);
        }
      },
      ways);

  // Normalize: expected count per cell -> probability density per km^2.
  pool.parallel_for(
      0, rows,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const double scale =
              1.0 / (static_cast<double>(used) * grid.cell_area_km2(r));
          for (double& v : grid.row_values(r)) v *= scale;
        }
      },
      ways);
  return grid;
}

DensityGrid KernelDensityEstimator::estimate_exact(std::span<const geo::GeoPoint> points,
                                                   const geo::BoundingBox& box) const {
  if (points.empty()) {
    throw std::invalid_argument{"KernelDensityEstimator::estimate_exact: no points"};
  }
  DensityGrid grid{box, config_.cell_km, config_.max_cells};
  grid.set_support(std::vector<DensityGrid::RowSpan>(grid.rows(), {0, grid.cols()}));
  const double sigma = config_.bandwidth_km;
  const double support = sigma * config_.truncate_sigmas;
  const double norm = 1.0 / (2.0 * std::numbers::pi * sigma * sigma *
                             static_cast<double>(points.size()));
  auto& pool = util::ThreadPool::shared();
  const std::size_t ways =
      config_.threads == 0 ? pool.worker_count() : config_.threads;
  pool.parallel_for(
      0, grid.rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          for (std::size_t c = 0; c < grid.cols(); ++c) {
            const geo::GeoPoint center = grid.center_of(r, c);
            double acc = 0.0;
            for (const auto& p : points) {
              const double d = geo::approx_distance_km(center, p);
              if (d <= support) acc += std::exp(-0.5 * (d / sigma) * (d / sigma));
            }
            grid.set(r, c, acc * norm);
          }
        }
      },
      ways);
  return grid;
}

}  // namespace eyeball::kde
