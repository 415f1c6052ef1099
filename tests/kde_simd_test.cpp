// Differential tests for the register-tiled separable-KDE convolutions
// (src/kde/convolve.hpp; DESIGN.md "Data layout & vectorization"), and for
// the sparse-support estimate, peak finder and contour extractor against a
// naive dense reference that convolves and scans the whole box.
//
// The tiled kernels promise EXACT equality with the obvious scalar loop:
// tiling widens across independent output cells and each cell still sums
// its taps in ascending index order, so no floating-point operation is
// reassociated — including in the clipped edge tiles and under the hot-TU
// -O3/-mavx2 build this binary links against.  Every comparison here is
// therefore `==` on doubles, never a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "geo/point.hpp"
#include "kde/contour.hpp"
#include "kde/convolve.hpp"
#include "kde/estimator.hpp"
#include "kde/peaks.hpp"
#include "util/rng.hpp"

namespace eyeball::kde {
namespace {

constexpr std::size_t kTile = detail::kConvolveTile;

/// The one-output-at-a-time reference: for output i, taps accumulate in
/// ascending tap order, out-of-range taps dropped (edge clipping).
std::vector<double> reference_convolve(const std::vector<double>& src,
                                       const std::vector<double>& taps) {
  const auto n = static_cast<std::ptrdiff_t>(src.size());
  const auto radius = static_cast<std::ptrdiff_t>(taps.size() / 2);
  std::vector<double> dst(src.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(taps.size()); ++k) {
      const std::ptrdiff_t j = i + k - radius;
      if (j < 0 || j >= n) continue;
      acc += src[static_cast<std::size_t>(j)] * taps[static_cast<std::size_t>(k)];
    }
    dst[static_cast<std::size_t>(i)] = acc;
  }
  return dst;
}

std::vector<double> random_values(util::Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  // Mixed-sign values so a dropped or duplicated tap cannot cancel out.
  for (auto& v : out) v = rng.uniform(-2.0, 2.0);
  return out;
}

std::vector<double> random_taps(util::Rng& rng, std::size_t radius) {
  std::vector<double> taps(2 * radius + 1);
  for (auto& t : taps) t = rng.uniform(0.0, 1.0);
  return taps;
}

void expect_row_matches_reference(const std::vector<double>& src,
                                  const std::vector<double>& taps) {
  const auto want = reference_convolve(src, taps);
  std::vector<double> got(src.size(), -1.0);
  detail::convolve_row(src.data(), got.data(), src.size(), taps.data(), taps.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "n=" << src.size() << " taps=" << taps.size()
                               << " cell " << i;
  }
}

TEST(ConvolveRow, MatchesScalarReferenceOnRandomizedInputs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng{seed};
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const auto radius = static_cast<std::size_t>(rng.uniform_int(0, 80));
    expect_row_matches_reference(random_values(rng, n), random_taps(rng, radius));
  }
}

TEST(ConvolveRow, EdgeClippingExactAtTileBoundaries) {
  util::Rng rng{42};
  // Sizes straddling every peel boundary: partial-tile tails, rows fully
  // inside the clipped region, tiles spilling from the clipped prologue
  // into the interior, and kernels wider than the whole row.
  const std::size_t sizes[] = {1,         2,         kTile - 1, kTile,
                               kTile + 1, 2 * kTile, 3 * kTile + 7};
  const std::size_t radii[] = {0, 1, 5, kTile - 1, kTile, 2 * kTile, 100};
  for (const std::size_t n : sizes) {
    for (const std::size_t radius : radii) {
      expect_row_matches_reference(random_values(rng, n), random_taps(rng, radius));
    }
  }
}

/// Reference vertical pass: column-by-column scalar walk in ascending row
/// (= tap) order over the row-major rows x cols image.
std::vector<double> reference_convolve_columns(const std::vector<double>& src,
                                               std::size_t rows, std::size_t cols,
                                               const std::vector<double>& taps) {
  const auto srows = static_cast<std::ptrdiff_t>(rows);
  const auto radius = static_cast<std::ptrdiff_t>(taps.size() / 2);
  std::vector<double> dst(src.size());
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::ptrdiff_t i = 0; i < srows; ++i) {
      double acc = 0.0;
      for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(taps.size()); ++k) {
        const std::ptrdiff_t j = i + k - radius;
        if (j < 0 || j >= srows) continue;
        acc += src[static_cast<std::size_t>(j) * cols + c] *
               taps[static_cast<std::size_t>(k)];
      }
      dst[static_cast<std::size_t>(i) * cols + c] = acc;
    }
  }
  return dst;
}

void expect_columns_match_reference(std::size_t rows, std::size_t cols,
                                    std::size_t radius, std::uint64_t seed) {
  util::Rng rng{seed};
  const auto src = random_values(rng, rows * cols);
  const auto taps = random_taps(rng, radius);
  const auto want = reference_convolve_columns(src, rows, cols, taps);
  std::vector<double> got(src.size(), -1.0);
  // Tile the columns exactly the way estimate() does, remainder tile last.
  for (std::size_t col = 0; col < cols; col += kTile) {
    detail::convolve_columns_tile(src.data(), got.data(), rows, cols, col,
                                  std::min(kTile, cols - col), taps.data(),
                                  taps.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << rows << "x" << cols << " taps=" << taps.size()
                               << " cell " << i;
  }
}

TEST(ConvolveColumns, MatchesScalarReferenceOnRandomizedImages) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng{seed * 977};
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto cols = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto radius = static_cast<std::size_t>(rng.uniform_int(0, 40));
    expect_columns_match_reference(rows, cols, radius, seed);
  }
}

TEST(ConvolveColumns, RemainderTilesAndShortImagesExact) {
  std::uint64_t seed = 7;
  // cols exercising the full-tile path, the <kTile remainder path, and
  // both; rows at and below 2*radius force the all-clipped degenerate walk.
  const std::size_t col_counts[] = {1, 5, kTile - 1, kTile, kTile + 3, 2 * kTile + 1};
  for (const std::size_t cols : col_counts) {
    for (const std::size_t rows : {1u, 3u, 9u, 40u}) {
      for (const std::size_t radius : {1u, 4u, 20u}) {
        expect_columns_match_reference(rows, cols, radius, ++seed);
      }
    }
  }
}

/// Seeded point cloud around Rome, with a share of the points pushed onto
/// the bounding box's rim so the clipped edge tiles carry real mass.
std::vector<geo::GeoPoint> random_cloud(std::uint64_t seed, std::size_t count) {
  util::Rng rng{seed};
  const geo::GeoPoint rome{41.9028, 12.4964};
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double bearing = rng.uniform(0.0, 360.0);
    const double km = i % 8 == 0 ? rng.uniform(140.0, 150.0)  // rim cluster
                                 : rng.uniform(0.0, 150.0);
    points.push_back(geo::destination(rome, bearing, km));
  }
  return points;
}

TEST(KdeSimd, EstimateByteIdenticalAcrossThreadCounts) {
  KdeConfig config;
  config.bandwidth_km = 25.0;
  config.cell_km = 5.0;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto points = random_cloud(seed, 600);
    config.threads = 1;
    const KernelDensityEstimator serial{config};
    // A tight box (no kernel padding): edge cells clip real kernel mass.
    const auto box = geo::BoundingBox::around(points);
    const auto reference = serial.estimate(points, box);
    for (const std::size_t threads : {2u, 3u, 0u}) {
      config.threads = threads;
      const auto parallel = KernelDensityEstimator{config}.estimate(points, box);
      ASSERT_EQ(parallel.rows(), reference.rows());
      ASSERT_EQ(parallel.cols(), reference.cols());
      // Bytes, not approximately: the convolutions never reassociate.
      EXPECT_TRUE(std::ranges::equal(parallel.values(), reference.values()))
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(KdeSimd, EstimateIsDeterministicAcrossRepeatedCalls) {
  const auto points = random_cloud(99, 400);
  KdeConfig config;
  config.bandwidth_km = 30.0;
  config.cell_km = 6.0;
  const KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  const auto first = estimator.estimate(points, box);
  // The passes run in place over per-call buffers; nothing from the first
  // call may leak into the second.
  const auto second = estimator.estimate(points, box);
  EXPECT_TRUE(std::ranges::equal(first.values(), second.values()));
}


// ---- sparse support versus the dense box -----------------------------------

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_point(const geo::GeoPoint& a, const geo::GeoPoint& b) {
  return same_bits(a.lat_deg, b.lat_deg) && same_bits(a.lon_deg, b.lon_deg);
}

/// The estimate the obvious way: bin, convolve every row of the box with
/// its own kernel, then every column, then normalize every cell — the
/// scalar reference convolutions above, no support anywhere.  Its spans
/// are whole rows, so it stores the whole box and every analysis over it
/// walks every cell.
DensityGrid dense_reference_estimate(std::span<const geo::GeoPoint> points,
                                     const geo::BoundingBox& box, const KdeConfig& config) {
  DensityGrid grid{box, config.cell_km, config.max_cells};
  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();
  grid.set_support(std::vector<DensityGrid::RowSpan>(rows, {0, cols}));
  std::vector<double> binned(rows * cols, 0.0);
  std::size_t used = 0;
  for (const auto& p : points) {
    if (const auto cell = grid.cell_of(p)) {
      binned[cell->first * cols + cell->second] += 1.0;
      ++used;
    }
  }
  std::vector<double> horizontal(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<double> row(binned.begin() + static_cast<std::ptrdiff_t>(r * cols),
                                  binned.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    const auto taps = detail::gaussian_taps(
        detail::row_sigma_cells(grid, r, config.bandwidth_km), config.truncate_sigmas);
    const auto out = reference_convolve(row, taps);
    std::copy(out.begin(), out.end(),
              horizontal.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  const auto vertical_taps = detail::gaussian_taps(
      config.bandwidth_km / grid.cell_height_km(), config.truncate_sigmas);
  const auto vertical = reference_convolve_columns(horizontal, rows, cols, vertical_taps);
  for (std::size_t r = 0; r < rows; ++r) {
    const double scale = 1.0 / (static_cast<double>(used) * grid.cell_area_km2(r));
    for (std::size_t c = 0; c < cols; ++c) grid.set(r, c, vertical[r * cols + c] * scale);
  }
  return grid;
}

void expect_same_peaks(const std::vector<Peak>& got, const std::vector<Peak>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(same_point(got[i].location, want[i].location) &&
                same_bits(got[i].density, want[i].density) &&
                same_bits(got[i].score, want[i].score) && got[i].row == want[i].row &&
                got[i].col == want[i].col)
        << "peak " << i;
  }
}

void expect_same_footprint(const Footprint& got, const Footprint& want) {
  EXPECT_TRUE(same_bits(got.level, want.level));
  ASSERT_EQ(got.partitions.size(), want.partitions.size());
  for (std::size_t i = 0; i < got.partitions.size(); ++i) {
    const auto& a = got.partitions[i];
    const auto& b = want.partitions[i];
    EXPECT_TRUE(a.cell_count == b.cell_count && same_bits(a.area_km2, b.area_km2) &&
                same_bits(a.mass, b.mass) && same_bits(a.peak_density, b.peak_density) &&
                same_point(a.peak_location, b.peak_location) &&
                same_bits(a.min_lat, b.min_lat) && same_bits(a.max_lat, b.max_lat) &&
                same_bits(a.min_lon, b.min_lon) && same_bits(a.max_lon, b.max_lon))
        << "partition " << i;
  }
  ASSERT_EQ(got.boundary.size(), want.boundary.size());
  for (std::size_t i = 0; i < got.boundary.size(); ++i) {
    EXPECT_TRUE(same_point(got.boundary[i].a, want.boundary[i].a) &&
                same_point(got.boundary[i].b, want.boundary[i].b))
        << "segment " << i;
  }
}

/// estimate() against the dense reference bit for bit, the support tight
/// enough to skip something and honest (bit-zero outside), and every
/// analysis over the sparse grid equal to the same analysis walking the
/// dense reference's whole box.
void expect_sparse_matches_dense(std::span<const geo::GeoPoint> points,
                                 const geo::BoundingBox& box, KdeConfig config,
                                 bool expect_skipped_cells = true) {
  const KernelDensityEstimator estimator{config};
  config = estimator.config();  // the estimator may clamp cell_km
  const DensityGrid sparse = estimator.estimate(points, box);
  const DensityGrid dense = dense_reference_estimate(points, box, config);
  ASSERT_EQ(sparse.rows(), dense.rows());
  ASSERT_EQ(sparse.cols(), dense.cols());

  std::size_t support_cells = 0;
  for (std::size_t r = 0; r < sparse.rows(); ++r) {
    const auto span = sparse.row_support(r);
    ASSERT_LE(span.lo, span.hi);
    ASSERT_LE(span.hi, sparse.cols());
    support_cells += span.hi - span.lo;
    for (std::size_t c = 0; c < sparse.cols(); ++c) {
      ASSERT_TRUE(same_bits(sparse.value(r, c), dense.value(r, c)))
          << sparse.rows() << "x" << sparse.cols() << " cell (" << r << ", " << c << ")";
      if (c < span.lo || c >= span.hi) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.value(r, c)), 0U)
            << "nonzero outside the support at (" << r << ", " << c << ")";
      }
    }
  }
  EXPECT_EQ(sparse.stored_cells(), support_cells);
  if (expect_skipped_cells) {
    EXPECT_LT(support_cells, sparse.cell_count());
  }

  // max_cell: the first maximum in row-major order, as max_element finds it.
  const auto it = std::max_element(dense.values().begin(), dense.values().end());
  const auto index = static_cast<std::size_t>(std::distance(dense.values().begin(), it));
  const auto max = sparse.max_cell();
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->row, index / dense.cols());
  EXPECT_EQ(max->col, index % dense.cols());
  EXPECT_TRUE(same_bits(max->value, *it));

  // integral: every row summed over every column.
  double total = 0.0;
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < dense.cols(); ++c) row_sum += dense.value(r, c);
    total += row_sum * dense.cell_area_km2(r);
  }
  EXPECT_TRUE(same_bits(sparse.integral(), total));
  EXPECT_TRUE(same_bits(sparse.integral(), dense.integral()));

  PeakConfig peak_config;
  peak_config.bandwidth_km = config.bandwidth_km;
  expect_same_peaks(find_peaks(sparse, peak_config), find_peaks(dense, peak_config));
  // The paper's 1% contour, and a high one that splits into partitions.
  for (const double fraction : {0.01, 0.3}) {
    expect_same_footprint(extract_footprint_relative(sparse, fraction),
                          extract_footprint_relative(dense, fraction));
  }
}

/// `count` points scattered within `radius_km` of `center`.
void add_cluster(std::vector<geo::GeoPoint>& points, util::Rng& rng,
                 const geo::GeoPoint& center, double radius_km, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(
        geo::destination(center, rng.uniform(0.0, 360.0), rng.uniform(0.0, radius_km)));
  }
}

KdeConfig sparse_config(double bandwidth_km, double cell_km) {
  KdeConfig config;
  config.bandwidth_km = bandwidth_km;
  config.cell_km = cell_km;
  return config;
}

TEST(KdeSparse, ClustersFarApartInRowsAndColumns) {
  util::Rng rng{2010};
  std::vector<geo::GeoPoint> points;
  // Corners of a wide box: apart by far more than two kernel radii in both
  // rows and columns, so rows carry several runs and tiles several bands.
  for (const geo::GeoPoint center : {geo::GeoPoint{41.0, 6.0}, geo::GeoPoint{41.0, 14.0},
                                     geo::GeoPoint{45.0, 6.0}, geo::GeoPoint{45.0, 14.0},
                                     geo::GeoPoint{43.0, 10.0}}) {
    add_cluster(points, rng, center, 15.0, 300);
  }
  // Clusters closer than one radius (their runs merge), between one and
  // two radii apart (still merged: their widened outputs meet), and beyond
  // two radii (split), along a row and along a column.
  add_cluster(points, rng, {44.0, 9.0}, 5.0, 100);
  add_cluster(points, rng, {44.0, 9.3}, 5.0, 100);
  add_cluster(points, rng, {41.5, 11.0}, 1.0, 50);
  add_cluster(points, rng, {41.5, 11.72}, 1.0, 50);
  add_cluster(points, rng, {42.5, 12.5}, 1.0, 50);
  add_cluster(points, rng, {43.04, 12.5}, 1.0, 50);
  add_cluster(points, rng, {42.0, 7.0}, 2.0, 50);
  add_cluster(points, rng, {42.0, 8.2}, 2.0, 50);
  const geo::BoundingBox box{40.0, 46.0, 5.0, 15.0};
  expect_sparse_matches_dense(points, box, sparse_config(10.0, 2.5));
  expect_sparse_matches_dense(points, box, sparse_config(25.0, 5.0));
}

TEST(KdeSparse, SinglePoint) {
  const std::vector<geo::GeoPoint> points{{45.4642, 9.19}};
  expect_sparse_matches_dense(points, geo::BoundingBox{43.0, 48.0, 6.0, 13.0},
                              sparse_config(10.0, 2.5));
}

TEST(KdeSparse, MassOnFirstAndLastRowsAndColumns) {
  util::Rng rng{5};
  std::vector<geo::GeoPoint> points{
      {40.0, 5.0}, {40.0, 15.0}, {46.0, 5.0}, {46.0, 15.0}, {43.0, 5.0}, {46.0, 10.0}};
  add_cluster(points, rng, {43.0, 10.0}, 30.0, 200);
  // A tight box: the corner points bin into the first and last rows and
  // columns, so runs and bands clip at every edge of the grid.
  const auto box = geo::BoundingBox::around(points);
  expect_sparse_matches_dense(points, box, sparse_config(10.0, 2.5));
}

TEST(KdeSparse, FewerRowsThanTwoVerticalRadii) {
  util::Rng rng{8};
  std::vector<geo::GeoPoint> points;
  for (std::size_t i = 0; i < 120; ++i) {
    points.push_back({rng.uniform(43.0, 43.06), rng.uniform(6.0, 6.3)});
    points.push_back({rng.uniform(43.0, 43.06), rng.uniform(11.0, 11.2)});
  }
  // ~3 rows against a vertical radius of 16 cells: every band is the
  // all-clipped degenerate walk.
  const geo::BoundingBox box{43.0, 43.06, 5.0, 13.0};
  expect_sparse_matches_dense(points, box, sparse_config(10.0, 2.5));
}

TEST(KdeSparse, RemainderColumnTiles) {
  util::Rng rng{13};
  std::vector<geo::GeoPoint> points;
  add_cluster(points, rng, {44.0, 9.95}, 8.0, 150);
  add_cluster(points, rng, {42.5, 7.0}, 8.0, 150);
  // Widths that leave partial last tiles, with mass reaching into them.
  for (const double max_lon : {10.0, 10.07, 10.3}) {
    const geo::BoundingBox box{42.0, 45.0, 6.5, max_lon};
    const DensityGrid probe{box, 2.5};
    EXPECT_NE(probe.cols() % detail::kConvolveTile, 0U) << max_lon;
    expect_sparse_matches_dense(points, box, sparse_config(10.0, 2.5));
  }
}

TEST(KdeSparse, HighLatitudeBoxWithVaryingRowRadius) {
  util::Rng rng{70};
  std::vector<geo::GeoPoint> points;
  add_cluster(points, rng, {61.0, 15.0}, 20.0, 200);
  add_cluster(points, rng, {69.0, 25.0}, 20.0, 200);
  add_cluster(points, rng, {76.0, 16.0}, 20.0, 200);
  // Cells are degrees of longitude: a cell near 78N is well under half as
  // wide as one near 60N, so the row kernel's radius grows up the grid.
  const geo::BoundingBox box{60.0, 78.0, 10.0, 40.0};
  const DensityGrid probe{box, 5.0};
  EXPECT_GT(detail::row_sigma_cells(probe, probe.rows() - 1, 20.0),
            2.0 * detail::row_sigma_cells(probe, 0, 20.0));
  expect_sparse_matches_dense(points, box, sparse_config(20.0, 5.0));
}

TEST(KdeSparse, UniformCloudFillingTheBox) {
  // The existing Rome cloud with rim mass: support close to the whole box,
  // every edge clipped.  Nothing need be skipped; everything must match.
  const auto points = random_cloud(21, 500);
  expect_sparse_matches_dense(points, geo::BoundingBox::around(points),
                              sparse_config(25.0, 5.0), false);
}

TEST(KdeSparse, SinglePointInALargeBoxStoresOnlyItsKernel) {
  // ~2250 x ~2500 cells, inside the default budget: a dense box would be
  // ~45 MB of doubles.  The estimate stores the kernel's reach alone.
  const KdeConfig config = sparse_config(10.0, 2.5);
  const KernelDensityEstimator estimator{config};
  const geo::BoundingBox box{10.0, 60.0, -30.0, 41.0};
  const std::vector<geo::GeoPoint> points{{35.0, 5.0}};
  const DensityGrid grid = estimator.estimate(points, box);
  ASSERT_GT(grid.cell_count(), 5000000u);
  ASSERT_LE(grid.cell_count(), config.max_cells);

  const auto [row, col] = *grid.cell_of(points[0]);
  const std::size_t vertical_taps =
      detail::gaussian_taps(config.bandwidth_km / grid.cell_height_km(),
                            config.truncate_sigmas)
          .size();
  std::size_t widest = 0;
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    widest = std::max(widest, grid.row_values(r).size());
  }
  const std::size_t row_taps =
      detail::gaussian_taps(detail::row_sigma_cells(grid, row, config.bandwidth_km),
                            config.truncate_sigmas)
          .size();
  EXPECT_EQ(widest, row_taps);
  EXPECT_EQ(grid.stored_cells(), vertical_taps * row_taps);

  const auto max = grid.max_cell();
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->row, row);
  EXPECT_EQ(max->col, col);
  EXPECT_NEAR(grid.integral(), 1.0, 1e-3);
}

}  // namespace
}  // namespace eyeball::kde
