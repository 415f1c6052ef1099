#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "geo/point.hpp"
#include "kde/contour.hpp"
#include "kde/estimator.hpp"
#include "kde/grid.hpp"
#include "kde/peaks.hpp"
#include "util/rng.hpp"

namespace eyeball::kde {
namespace {

constexpr geo::GeoPoint kRome{41.9028, 12.4964};
constexpr geo::GeoPoint kMilan{45.4642, 9.1900};

/// Gaussian cloud of points around a center.
std::vector<geo::GeoPoint> cloud(const geo::GeoPoint& center, double sigma_km,
                                 std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<geo::GeoPoint> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double r = sigma_km * std::sqrt(-2.0 * std::log1p(-rng.uniform()));
    out.push_back(geo::destination(center, rng.uniform(0.0, 360.0), r));
  }
  return out;
}

TEST(DensityGrid, GeometryBasics) {
  const geo::BoundingBox box{40.0, 42.0, 10.0, 13.0};
  const DensityGrid grid{box, 10.0};
  EXPECT_GT(grid.rows(), 10u);
  EXPECT_GT(grid.cols(), 10u);
  EXPECT_EQ(grid.cell_count(), grid.rows() * grid.cols());
  EXPECT_NEAR(grid.cell_height_km(), 10.0, 0.1);
  // Cell width at the central latitude matches the requested size.
  EXPECT_NEAR(grid.cell_width_km(grid.rows() / 2), 10.0, 0.3);
}

TEST(DensityGrid, CellOfRoundTrip) {
  const geo::BoundingBox box{40.0, 42.0, 10.0, 13.0};
  const DensityGrid grid{box, 5.0};
  for (std::size_t r = 0; r < grid.rows(); r += 7) {
    for (std::size_t c = 0; c < grid.cols(); c += 7) {
      const auto cell = grid.cell_of(grid.center_of(r, c));
      ASSERT_TRUE(cell);
      EXPECT_EQ(cell->first, r);
      EXPECT_EQ(cell->second, c);
    }
  }
}

TEST(DensityGrid, CellOfOutsideBox) {
  const geo::BoundingBox box{40.0, 42.0, 10.0, 13.0};
  const DensityGrid grid{box, 5.0};
  EXPECT_FALSE(grid.cell_of({39.0, 11.0}));
  EXPECT_FALSE(grid.cell_of({41.0, 14.0}));
}

TEST(DensityGrid, CoarsensWhenOverBudget) {
  const geo::BoundingBox box{30.0, 60.0, -10.0, 40.0};
  const DensityGrid grid{box, 1.0, 10000};
  EXPECT_LE(grid.cell_count(), 10000u);
  EXPECT_GT(grid.cell_km(), 1.0);
}

TEST(DensityGrid, RejectsBadCellSize) {
  const geo::BoundingBox box{40.0, 42.0, 10.0, 13.0};
  EXPECT_THROW(DensityGrid(box, 0.0), std::invalid_argument);
  EXPECT_THROW(DensityGrid(box, -5.0), std::invalid_argument);
}

TEST(DensityGrid, ExtremeResolutionCoarsensWithoutOverflow) {
  // Regression: the budget loop used to cast want_rows/want_cols to size_t
  // *before* comparing against max_cells, so a cell size this small pushed
  // an out-of-range double through a float->int cast (undefined behaviour,
  // trapped by -fsanitize=undefined).  The comparison now happens in double.
  const geo::BoundingBox box{30.0, 60.0, -10.0, 40.0};
  const DensityGrid grid{box, 1e-30, 10000};
  EXPECT_LE(grid.cell_count(), 10000u);
  EXPECT_GT(grid.cell_km(), 1e-30);
  EXPECT_GE(grid.rows(), 1u);
  EXPECT_GE(grid.cols(), 1u);
}

/// One span per row of `grid`, [lo, hi) for every row.
std::vector<DensityGrid::RowSpan> full_rows(const DensityGrid& grid) {
  return std::vector<DensityGrid::RowSpan>(grid.rows(), {0, grid.cols()});
}

TEST(DensityGrid, MaxCellFindsMaximum) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  DensityGrid grid{box, 10.0};
  grid.set_support(full_rows(grid));
  EXPECT_FALSE(grid.max_cell());
  grid.set(1, 2, 5.0);
  grid.set(2, 1, 9.0);
  const auto max = grid.max_cell();
  ASSERT_TRUE(max);
  EXPECT_EQ(max->row, 2u);
  EXPECT_EQ(max->col, 1u);
  EXPECT_DOUBLE_EQ(max->value, 9.0);
}

TEST(DensityGrid, BoxOnlyGridStoresNothing) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  const DensityGrid grid{box, 10.0};
  EXPECT_EQ(grid.stored_cells(), 0u);
  EXPECT_EQ(grid.cell_count(), grid.rows() * grid.cols());
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    EXPECT_EQ(grid.row_support(r).lo, grid.row_support(r).hi);
    EXPECT_TRUE(grid.row_values(r).empty());
  }
  EXPECT_FALSE(grid.max_cell());
  EXPECT_EQ(grid.integral(), 0.0);
  std::size_t seen = 0;
  for (const double v : grid.values()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v), 0u);
    ++seen;
  }
  EXPECT_EQ(seen, grid.cell_count());
}

TEST(DensityGrid, StorageIsTheSumOfTheSpans) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  DensityGrid grid{box, 10.0};
  ASSERT_GE(grid.rows(), 3u);
  ASSERT_GE(grid.cols(), 5u);
  std::vector<DensityGrid::RowSpan> support(grid.rows());
  support[0] = {2, 3};
  support[1] = {1, 5};
  support[grid.rows() - 1] = {0, grid.cols()};
  grid.set_support(support);
  EXPECT_EQ(grid.stored_cells(), 1 + 4 + grid.cols());
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    EXPECT_EQ(grid.row_values(r).size(), support[r].hi - support[r].lo) << r;
    for (const double v : grid.row_values(r)) EXPECT_EQ(std::bit_cast<std::uint64_t>(v), 0u);
  }
  grid.set(0, 2, 1.0);
  grid.set(1, 1, 3.0);
  grid.set(1, 4, 4.0);
  EXPECT_EQ(grid.row_values(1)[0], 3.0);
  EXPECT_EQ(grid.row_values(1)[3], 4.0);
  const auto max = grid.max_cell();
  ASSERT_TRUE(max);
  EXPECT_EQ(max->row, 1u);
  EXPECT_EQ(max->col, 4u);
  EXPECT_DOUBLE_EQ(grid.integral(),
                   1.0 * grid.cell_area_km2(0) + 7.0 * grid.cell_area_km2(1));
  // Declaring new spans drops the old values.
  grid.set_support(full_rows(grid));
  EXPECT_EQ(grid.stored_cells(), grid.cell_count());
  EXPECT_FALSE(grid.max_cell());
}

TEST(DensityGrid, DenseViewYieldsEveryCellInRowMajorOrder) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  DensityGrid grid{box, 10.0};
  ASSERT_GE(grid.rows(), 3u);
  ASSERT_GE(grid.cols(), 5u);
  std::vector<DensityGrid::RowSpan> support(grid.rows());
  support[0] = {0, 2};
  support[2] = {3, grid.cols()};
  grid.set_support(support);
  grid.set(0, 0, 0.5);
  grid.set(0, 1, -0.0);  // stored bits survive the view
  grid.set(2, 3, 2.0);
  grid.set(2, grid.cols() - 1, 7.0);

  const auto view = grid.values();
  EXPECT_EQ(view.size(), grid.cell_count());
  std::size_t index = 0;
  for (auto it = view.begin(); it != view.end(); ++it, ++index) {
    const std::size_t r = index / grid.cols();
    const std::size_t c = index % grid.cols();
    ASSERT_LT(r, grid.rows());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*it), std::bit_cast<std::uint64_t>(grid.value(r, c)))
        << "(" << r << ", " << c << ")";
    if (c < support[r].lo || c >= support[r].hi) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*it), 0u) << "(" << r << ", " << c << ")";
    }
  }
  EXPECT_EQ(index, grid.rows() * grid.cols());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(grid.value(0, 1)),
            std::bit_cast<std::uint64_t>(-0.0));
  // Iterators of two views of one grid compare.
  EXPECT_EQ(std::count_if(grid.values().begin(), grid.values().end(),
                          [](double v) { return v != 0.0; }),
            3);
}

TEST(Estimator, ConfigValidation) {
  KdeConfig bad;
  bad.bandwidth_km = 0.0;
  EXPECT_THROW(KernelDensityEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.cell_km = -1.0;
  EXPECT_THROW(KernelDensityEstimator{bad}, std::invalid_argument);
  bad = {};
  bad.truncate_sigmas = 0.5;
  EXPECT_THROW(KernelDensityEstimator{bad}, std::invalid_argument);
}

TEST(Estimator, CellSizeClampedToResolveKernel) {
  KdeConfig config;
  config.bandwidth_km = 10.0;
  config.cell_km = 40.0;
  const KernelDensityEstimator estimator{config};
  EXPECT_LE(estimator.config().cell_km, 5.0);
}

TEST(Estimator, RejectsEmptyInput) {
  const KernelDensityEstimator estimator{KdeConfig{}};
  const std::vector<geo::GeoPoint> none;
  EXPECT_THROW((void)estimator.padded_box(none), std::invalid_argument);
  const geo::BoundingBox box{40.0, 42.0, 10.0, 13.0};
  EXPECT_THROW(estimator.estimate(none, box), std::invalid_argument);
}

TEST(Estimator, DensityIntegratesToOne) {
  KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 5.0;
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 30.0, 2000, 1);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  EXPECT_NEAR(grid.integral(), 1.0, 0.02);
}

TEST(Estimator, SinglePointPeakHeight) {
  // One point: peak density must be the kernel's peak 1 / (2 pi sigma^2).
  KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 4.0;
  const KernelDensityEstimator estimator{config};
  const std::vector<geo::GeoPoint> points{kRome};
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto max = grid.max_cell();
  ASSERT_TRUE(max);
  const double expected = 1.0 / (2.0 * std::numbers::pi * 40.0 * 40.0);
  EXPECT_NEAR(max->value, expected, expected * 0.05);
}

TEST(Estimator, PeakNearPointMass) {
  KdeConfig config;
  config.bandwidth_km = 20.0;
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kMilan, 5.0, 500, 2);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto max = grid.max_cell();
  ASSERT_TRUE(max);
  EXPECT_LT(geo::distance_km(grid.center_of(max->row, max->col), kMilan), 15.0);
}

TEST(Estimator, BinnedMatchesExact) {
  // Property: the binned separable estimate converges to the exact sum of
  // Gaussians.  Compare on a modest cloud.
  KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 5.0;
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 50.0, 400, 3);
  const auto box = estimator.padded_box(points);
  const auto fast = estimator.estimate(points, box);
  const auto exact = estimator.estimate_exact(points, box);
  ASSERT_EQ(fast.cell_count(), exact.cell_count());

  double max_value = 0.0;
  for (const double v : exact.values()) max_value = std::max(max_value, v);
  double worst = 0.0;
  for (std::size_t r = 0; r < fast.rows(); ++r) {
    for (std::size_t c = 0; c < fast.cols(); ++c) {
      worst = std::max(worst, std::abs(fast.value(r, c) - exact.value(r, c)));
    }
  }
  // Binning shifts each point by at most half a cell (2.5 km << 40 km).
  EXPECT_LT(worst, 0.08 * max_value);
}

TEST(Estimator, TwoClustersTwoModes) {
  KdeConfig config;
  config.bandwidth_km = 30.0;
  const KernelDensityEstimator estimator{config};
  auto points = cloud(kRome, 10.0, 600, 4);
  const auto milan_points = cloud(kMilan, 10.0, 400, 5);
  points.insert(points.end(), milan_points.begin(), milan_points.end());
  const auto grid = estimator.estimate(points, estimator.padded_box(points));

  PeakConfig peak_config;
  peak_config.alpha = 0.1;
  peak_config.bandwidth_km = 30.0;
  const auto peaks = find_peaks(grid, peak_config);
  ASSERT_GE(peaks.size(), 2u);
  // Top two peaks near Rome and Milan, Rome (more points) first.
  EXPECT_LT(geo::distance_km(peaks[0].location, kRome), 25.0);
  EXPECT_LT(geo::distance_km(peaks[1].location, kMilan), 25.0);
  EXPECT_GT(peaks[0].density, peaks[1].density);
}

TEST(Estimator, ScoreApproximatesClusterShare) {
  // 70/30 split between two well-separated clusters: peak scores should
  // approximate those shares (the paper's "Milan (.130)" semantics).
  KdeConfig config;
  config.bandwidth_km = 40.0;
  const KernelDensityEstimator estimator{config};
  auto points = cloud(kRome, 8.0, 1400, 6);
  const auto milan_points = cloud(kMilan, 8.0, 600, 7);
  points.insert(points.end(), milan_points.begin(), milan_points.end());
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  PeakConfig peak_config;
  peak_config.alpha = 0.05;
  peak_config.bandwidth_km = 40.0;
  const auto peaks = find_peaks(grid, peak_config);
  ASSERT_GE(peaks.size(), 2u);
  EXPECT_NEAR(peaks[0].score, 0.7, 0.12);
  EXPECT_NEAR(peaks[1].score, 0.3, 0.12);
}

// ---- Bandwidth sweep properties (parameterized) ----

class BandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthSweep, IntegralStaysNormalized) {
  KdeConfig config;
  config.bandwidth_km = GetParam();
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 60.0, 1500, 8);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  EXPECT_NEAR(grid.integral(), 1.0, 0.03);
}

TEST_P(BandwidthSweep, LargerBandwidthLowersPeak) {
  KdeConfig config;
  config.bandwidth_km = GetParam();
  const KernelDensityEstimator narrow{config};
  config.bandwidth_km = GetParam() * 2.0;
  const KernelDensityEstimator wide{config};
  const auto points = cloud(kRome, 5.0, 800, 9);
  const auto grid_narrow = narrow.estimate(points, narrow.padded_box(points));
  const auto grid_wide = wide.estimate(points, wide.padded_box(points));
  ASSERT_TRUE(grid_narrow.max_cell());
  ASSERT_TRUE(grid_wide.max_cell());
  EXPECT_GT(grid_narrow.max_cell()->value, grid_wide.max_cell()->value);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandwidthSweep,
                         ::testing::Values(10.0, 20.0, 40.0, 60.0, 80.0));

// ---- Peak resolution vs separation (parameterized) ----

struct SeparationCase {
  double separation_km;
  double bandwidth_km;
  bool expect_two_peaks;
};

class PeakSeparation : public ::testing::TestWithParam<SeparationCase> {};

TEST_P(PeakSeparation, ResolvesOrMergesClusters) {
  const auto param = GetParam();
  KdeConfig config;
  config.bandwidth_km = param.bandwidth_km;
  config.cell_km = std::min(5.0, param.bandwidth_km / 5.0);
  const KernelDensityEstimator estimator{config};
  const geo::GeoPoint other = geo::destination(kRome, 90.0, param.separation_km);
  auto points = cloud(kRome, 3.0, 800, 10);
  const auto second = cloud(other, 3.0, 800, 11);
  points.insert(points.end(), second.begin(), second.end());
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  PeakConfig peak_config;
  peak_config.alpha = 0.2;
  peak_config.bandwidth_km = param.bandwidth_km;
  const auto peaks = find_peaks(grid, peak_config);
  if (param.expect_two_peaks) {
    EXPECT_GE(peaks.size(), 2u);
  } else {
    EXPECT_EQ(peaks.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Separations, PeakSeparation,
    ::testing::Values(SeparationCase{200.0, 40.0, true},   // far apart: resolved
                      SeparationCase{120.0, 40.0, true},   // 3 sigma: resolved
                      SeparationCase{30.0, 40.0, false},   // < sigma: merged
                      SeparationCase{60.0, 20.0, true},    // finer kernel resolves
                      SeparationCase{60.0, 80.0, false})); // coarse kernel merges

TEST(Peaks, EmptyGridNoPeaks) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  const DensityGrid grid{box, 10.0};
  EXPECT_TRUE(find_peaks(grid).empty());
}

TEST(Peaks, AlphaFiltersMinorPeaks) {
  KdeConfig config;
  config.bandwidth_km = 20.0;
  const KernelDensityEstimator estimator{config};
  auto points = cloud(kRome, 5.0, 2000, 12);
  const auto minor = cloud(kMilan, 5.0, 10, 13);  // 0.5% of users
  points.insert(points.end(), minor.begin(), minor.end());
  const auto grid = estimator.estimate(points, estimator.padded_box(points));

  PeakConfig strict;
  strict.alpha = 0.05;
  strict.bandwidth_km = 20.0;
  PeakConfig loose;
  loose.alpha = 0.001;
  loose.bandwidth_km = 20.0;
  EXPECT_LT(find_peaks(grid, strict).size(), find_peaks(grid, loose).size());
}

TEST(Peaks, SortedByDensityDescending) {
  KdeConfig config;
  config.bandwidth_km = 30.0;
  const KernelDensityEstimator estimator{config};
  auto points = cloud(kRome, 10.0, 900, 14);
  const auto b = cloud(kMilan, 10.0, 500, 15);
  const auto c = cloud(geo::destination(kRome, 135.0, 400.0), 10.0, 200, 16);
  points.insert(points.end(), b.begin(), b.end());
  points.insert(points.end(), c.begin(), c.end());
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto peaks = find_peaks(grid, {0.01, 30.0, true});
  ASSERT_GE(peaks.size(), 2u);
  for (std::size_t i = 1; i < peaks.size(); ++i) {
    EXPECT_GE(peaks[i - 1].density, peaks[i].density);
  }
}

TEST(Peaks, EqualDensityPeaksSortInTotalOrder) {
  // Exact density ties happen on real grids (flat plateaus, symmetric
  // inputs); the sort must impose a TOTAL order — density descending, then
  // (row, col) ascending — or equal-density peaks land in whatever relative
  // order the standard library's unstable sort leaves them, and the
  // byte-identical determinism contract dies across stdlibs.
  const geo::BoundingBox box{40.0, 42.0, 10.0, 13.0};
  DensityGrid grid{box, 10.0};
  ASSERT_GE(grid.rows(), 14u);
  ASSERT_GE(grid.cols(), 14u);
  grid.set_support(full_rows(grid));
  // Three exactly-equal maxima: a two-cell plateau (collapses to one peak
  // anchored at its first cell) plus two isolated single-cell peaks.
  grid.set(5, 5, 1.0);
  grid.set(5, 6, 1.0);
  grid.set(5, 12, 1.0);
  grid.set(12, 5, 1.0);
  const auto peaks = find_peaks(grid, {0.01, 30.0, false});
  ASSERT_EQ(peaks.size(), 3u);
  for (const auto& peak : peaks) EXPECT_EQ(peak.density, 1.0);
  EXPECT_EQ(peaks[0].row, 5u);
  EXPECT_EQ(peaks[0].col, 5u);
  EXPECT_EQ(peaks[1].row, 5u);
  EXPECT_EQ(peaks[1].col, 12u);
  EXPECT_EQ(peaks[2].row, 12u);
  EXPECT_EQ(peaks[2].col, 5u);
}

TEST(Peaks, SubcellRefinementImprovesLocation) {
  KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 10.0;  // coarse grid to make refinement visible
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 4.0, 3000, 17);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto refined = find_peaks(grid, {0.01, 40.0, true});
  const auto raw = find_peaks(grid, {0.01, 40.0, false});
  ASSERT_FALSE(refined.empty());
  ASSERT_FALSE(raw.empty());
  EXPECT_LE(geo::distance_km(refined[0].location, kRome),
            geo::distance_km(raw[0].location, kRome) + 1.0);
}

TEST(Contour, FootprintCoversCluster) {
  KdeConfig config;
  config.bandwidth_km = 30.0;
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 20.0, 1000, 18);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto footprint = extract_footprint_relative(grid, 0.01);
  ASSERT_FALSE(footprint.partitions.empty());
  EXPECT_GT(footprint.total_area_km2(), 1000.0);
  // Nearly all users inside the 1%-of-max contour.
  EXPECT_GT(footprint.total_mass(), 0.9);
  EXPECT_FALSE(footprint.boundary.empty());
}

TEST(Contour, SeparatedClustersSeparatePartitions) {
  KdeConfig config;
  config.bandwidth_km = 25.0;
  const KernelDensityEstimator estimator{config};
  auto points = cloud(kRome, 8.0, 500, 19);
  const auto far = cloud(geo::destination(kRome, 0.0, 600.0), 8.0, 500, 20);
  points.insert(points.end(), far.begin(), far.end());
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto footprint = extract_footprint_relative(grid, 0.05);
  EXPECT_EQ(footprint.partitions.size(), 2u);
  // Partitions sorted by mass; both hold about half the users.
  EXPECT_NEAR(footprint.partitions[0].mass, 0.5, 0.1);
}

TEST(Contour, HigherLevelShrinksArea) {
  KdeConfig config;
  config.bandwidth_km = 30.0;
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 15.0, 800, 21);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto low = extract_footprint_relative(grid, 0.01);
  const auto high = extract_footprint_relative(grid, 0.5);
  EXPECT_GT(low.total_area_km2(), high.total_area_km2());
  EXPECT_GT(low.total_mass(), high.total_mass());
}

TEST(Contour, RejectsBadLevels) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  DensityGrid grid{box, 10.0};
  EXPECT_THROW(extract_footprint(grid, 0.0), std::invalid_argument);
  EXPECT_THROW(extract_footprint_relative(grid, 0.0), std::invalid_argument);
  EXPECT_THROW(extract_footprint_relative(grid, 1.0), std::invalid_argument);
}

TEST(Contour, EmptyGridEmptyFootprint) {
  const geo::BoundingBox box{40.0, 41.0, 10.0, 11.0};
  const DensityGrid grid{box, 10.0};
  const auto footprint = extract_footprint_relative(grid, 0.01);
  EXPECT_TRUE(footprint.partitions.empty());
}

// Regression: when the grid coarsens itself (max_cells budget) the per-row
// sigma can drop below half a quantization step; the kernel-cache key then
// rounded to 0 and make_kernel(0, ...) produced all-NaN taps (0/0 in the
// exponent), silently corrupting the whole surface.  The key is clamped to
// >= 1 now, so the estimate stays finite.
TEST(Estimator, TinySigmaToCellRatioStaysFinite) {
  KdeConfig config;
  config.bandwidth_km = 1.0;  // pathological: kernel far below cell size
  config.cell_km = 0.5;
  config.max_cells = 100;  // forces ~hundreds-of-km cells over this box
  const KernelDensityEstimator estimator{config};
  const geo::BoundingBox box{35.0, 60.0, -10.0, 30.0};
  std::vector<geo::GeoPoint> points;
  for (const auto& p : cloud(kRome, 400.0, 200, 31)) points.push_back(p);
  for (const auto& p : cloud(kMilan, 400.0, 200, 32)) points.push_back(p);

  const auto grid = estimator.estimate(points, box);
  double sum = 0.0;
  for (const double v : grid.values()) {
    ASSERT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_TRUE(std::isfinite(grid.integral()));
}

TEST(Contour, BoundarySegmentsSitNearLevel) {
  KdeConfig config;
  config.bandwidth_km = 30.0;
  const KernelDensityEstimator estimator{config};
  const auto points = cloud(kRome, 10.0, 600, 22);
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  const auto footprint = extract_footprint_relative(grid, 0.1);
  ASSERT_FALSE(footprint.boundary.empty());
  // Segment endpoints must lie inside the grid box.
  for (const auto& segment : footprint.boundary) {
    EXPECT_TRUE(grid.box().contains(segment.a));
    EXPECT_TRUE(grid.box().contains(segment.b));
  }
}

}  // namespace
}  // namespace eyeball::kde
