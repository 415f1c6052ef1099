// Internal: the kernels and register-tiled 1-D convolutions behind
// KernelDensityEstimator::estimate (see DESIGN.md "Data layout &
// vectorization").  Exposed in a header so tests/kde_simd_test.cpp can pin
// the tiled implementations and the sparse estimate bit-for-bit against a
// naive scalar reference — production code should go through the
// estimator, not call these.
//
// Both functions clip taps that fall outside the range (edge mass is
// dropped) and accumulate each output cell's taps in ascending index
// order, so their results are exactly those of the obvious scalar loop.
#pragma once

#include <cstddef>
#include <vector>

#include "kde/grid.hpp"

namespace eyeball::kde::detail {

/// Normalized, truncated 1-D Gaussian taps for a sigma given in cells:
/// 2 * ceil(sigma_cells * truncate_sigmas) + 1 of them.
[[nodiscard]] std::vector<double> gaussian_taps(double sigma_cells, double truncate_sigmas);

/// Sigma, in cells, of a grid row's horizontal kernel: the bandwidth over
/// the row's physical cell width, quantized to 1/64 cell so rows share
/// kernels, and clamped to >= 1/64 (a coarse grid can push sigma below half
/// a step, and a zero sigma would make NaN taps).
[[nodiscard]] double row_sigma_cells(const DensityGrid& grid, std::size_t row,
                                     double bandwidth_km);

/// Number of adjacent columns the vertical pass processes per tile (and the
/// horizontal pass's output-tile width).  32 doubles of accumulators — four
/// cache lines, small enough to live in vector registers once the
/// constant-trip inner loops unroll.
inline constexpr std::size_t kConvolveTile = 32;

/// Contiguous (stride-1) convolution of `src[0..n)` into `dst[0..n)` with a
/// centered `tap_count`-tap kernel (radius = tap_count / 2).
void convolve_row(const double* src, double* dst, std::size_t n, const double* taps,
                  std::size_t tap_count);

/// Vertical (cross-row) convolution of a row-major `rows x cols` image over
/// the `width <= kConvolveTile` adjacent columns starting at `col`.
void convolve_columns_tile(const double* src, double* dst, std::size_t rows,
                           std::size_t cols, std::size_t col, std::size_t width,
                           const double* taps, std::size_t tap_count);

}  // namespace eyeball::kde::detail
