#include "core/artifact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "core/byte_io.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/thread_pool.hpp"

// EYBART1 encoder / checker / record decoder.  The format contract (layout,
// check order) lives in artifact.hpp; this file keeps the byte-level
// constants and the two sides of the codec next to each other so they
// cannot drift.

namespace eyeball::core {

namespace {

using byte_io::load_u32;
using byte_io::Reader;
using byte_io::Writer;

static_assert(sizeof(double) == 8 && std::numeric_limits<double>::is_iec559,
              "EYBART1 stores doubles as IEEE-754 bit patterns");

/// Head magic, version, epoch and config fingerprint.
constexpr std::size_t kHeaderSize = byte_io::kHeadSize + 8 + 8;

// Element sizes of the counted arrays inside an AS record.
constexpr std::size_t kRunSize = 16;
constexpr std::size_t kPartitionSize = 80;
constexpr std::size_t kSegmentSize = 32;
constexpr std::size_t kPeakSize = 40;
constexpr std::size_t kPopSize = 36;
/// An AS record with every array empty: 3 u32 + 19 eight-byte fields.
constexpr std::size_t kMinRecordSize = 3 * 4 + 19 * 8;

/// True for an intact v1-v3 image: those sealed their header and section
/// table with a meta CRC at [48, 52) over the first 56 + 40 x (u32 at 12)
/// bytes, that slot read as zero, and carried no footer CRC.
[[nodiscard]] bool intact_sectioned_image(std::span<const std::byte> bytes) {
  constexpr std::size_t kOldHeaderSize = 56;
  constexpr std::size_t kOldCrcAt = 48;
  if (bytes.size() < kOldHeaderSize) return false;
  const std::uint32_t version = load_u32(bytes, 8);
  if (version < 1 || version > 3) return false;
  const std::uint64_t table_size = std::uint64_t{load_u32(bytes, 12)} * 40;
  if (table_size > bytes.size() - kOldHeaderSize) return false;
  const std::span<const std::byte> meta =
      bytes.first(kOldHeaderSize + static_cast<std::size_t>(table_size));
  constexpr std::array<std::byte, 4> kZeroSlot{};
  std::uint32_t crc = util::crc32c_fast(meta.first(kOldCrcAt));
  crc = util::crc32c_fast(kZeroSlot, crc);
  crc = util::crc32c_fast(meta.subspan(kOldCrcAt + kZeroSlot.size()), crc);
  return crc == load_u32(bytes, kOldCrcAt);
}

constexpr byte_io::Envelope kEnvelope{
    .head_magic = byte_io::magic("EYBART1\0"),
    .tail_magic = byte_io::magic("EYBAREND"),
    .version = ArtifactCodec::kFormatVersion,
    .min_size = kHeaderSize + byte_io::kStatsFixedSize + byte_io::kFooterSize,
    .name = "artifact",
    .too_short = "artifact: file shorter than the fixed envelope",
    .bad_head_magic = "artifact: bad head magic",
    .bad_tail_magic = "artifact: bad tail magic",
    .bad_crc = "artifact: footer CRC mismatch",
    .intact_earlier_frame = intact_sectioned_image,
};

[[nodiscard]] util::Status corruption_at(const char* what) {
  return util::Status::corruption(std::string{"artifact: "} + what);
}

[[nodiscard]] util::Status truncated_record() {
  return corruption_at("AS record runs past the end of the image");
}

/// Calls `stretch(cell, values)` for each maximal stretch of bit-nonzero
/// cells inside one row's stored cells, in row-major order; `cell` is the
/// grid-wide index of values[0].  "Zero" means the u64 bit pattern is
/// exactly zero — -0.0 and denormals count as nonzero and round-trip
/// bit-exactly.  Only the stored cells are scanned (all else is +0.0).
template <typename Stretch>
void for_each_nonzero_stretch(const kde::DensityGrid& grid, Stretch&& stretch) {
  for (std::size_t row = 0; row < grid.rows(); ++row) {
    const std::span<const double> values = grid.row_values(row);
    const std::uint64_t row_start = row * grid.cols() + grid.row_support(row).lo;
    const std::size_t n = values.size();
    const auto bits = [&values](std::size_t i) {
      return std::bit_cast<std::uint64_t>(values[i]);
    };
    // Most stored cells are zero and both kinds come in long stretches, so
    // each scan steps four cells at a time while all four agree.
    std::size_t i = 0;
    for (;;) {
      while (i + 4 <= n && (bits(i) | bits(i + 1) | bits(i + 2) | bits(i + 3)) == 0) i += 4;
      while (i < n && bits(i) == 0) ++i;
      if (i == n) break;
      std::size_t end = i + 1;
      while (end + 4 <= n && ((bits(end) != 0) & (bits(end + 1) != 0) &
                              (bits(end + 2) != 0) & (bits(end + 3) != 0))) {
        end += 4;
      }
      while (end < n && bits(end) != 0) ++end;
      stretch(row_start + i, values.subspan(i, end - i));
      i = end;
    }
  }
}

/// One AS's zero-suppressed grid, measured: its maximal runs of bit-nonzero
/// cells in row-major cell order (a run crossing a row boundary is one
/// run) and the cells they cover.  Stretches join into one run exactly
/// when one ends where the next begins.
struct SparseCounts {
  std::uint64_t runs = 0;
  std::uint64_t nonzero = 0;
};

[[nodiscard]] SparseCounts count_sparse(const kde::DensityGrid& grid) {
  SparseCounts counts;
  std::uint64_t run_end = 0;  // one past the open run; 0 before the first
  for_each_nonzero_stretch(grid, [&](std::uint64_t cell, std::span<const double> values) {
    if (run_end == 0 || cell != run_end) ++counts.runs;
    counts.nonzero += values.size();
    run_end = cell + values.size();
  });
  return counts;
}

/// Calls `piece(row, col, count)` for each row's share of the cells
/// [start, start + count) of a grid `cols` wide: a run that crosses a row
/// boundary is split there.
template <typename Piece>
void for_each_row_piece(std::uint64_t start, std::uint64_t count, std::uint64_t cols,
                        Piece&& piece) {
  while (count > 0) {
    const std::uint64_t col = start % cols;
    const std::uint64_t n = std::min(count, cols - col);
    piece(static_cast<std::size_t>(start / cols), static_cast<std::size_t>(col),
          static_cast<std::size_t>(n));
    start += n;
    count -= n;
  }
}

/// The bytes put_record writes for `analysis`, whose grid measures `grid`.
[[nodiscard]] std::size_t record_size(const AsAnalysis& analysis,
                                      const SparseCounts& grid) {
  return kMinRecordSize + analysis.classification.dominant_region.size() +
         grid.runs * kRunSize + grid.nonzero * 8 +
         analysis.footprint.contour.partitions.size() * kPartitionSize +
         analysis.footprint.contour.boundary.size() * kSegmentSize +
         analysis.footprint.peaks.size() * kPeakSize +
         analysis.pops.pops.size() * kPopSize;
}

/// Writes one AS's record (layout in artifact.hpp) through `out`, which
/// spans exactly record_size(analysis, sparse) bytes.
void put_record(Writer& out, const AsAnalysis& analysis, const SparseCounts& sparse) {
  const Classification& c = analysis.classification;
  out.put_u32(net::value_of(analysis.asn));
  out.put_u32(static_cast<std::uint32_t>(c.level));
  out.put_u32(static_cast<std::uint32_t>(c.continent));
  out.put_f64(c.dominant_share);
  out.put_u64(c.dominant_region.size());
  out.put_bytes(std::as_bytes(std::span{c.dominant_region}));

  const kde::DensityGrid& grid = analysis.footprint.grid;
  out.put_u64(grid.rows());
  out.put_u64(grid.cols());
  out.put_f64(grid.box().min_lat());
  out.put_f64(grid.box().max_lat());
  out.put_f64(grid.box().min_lon());
  out.put_f64(grid.box().max_lon());
  out.put_f64(grid.cell_km());

  // The runs, then their cells' values (and only those): both regions are
  // sized by count_sparse, so one walk of the grid fills them side by side,
  // each row piece of values as one copy.
  out.put_u64(sparse.runs);
  Writer runs = out.take(sparse.runs * kRunSize);
  out.put_u64(sparse.nonzero);
  Writer values = out.take(sparse.nonzero * 8);
  std::uint64_t run_start = 0;
  std::uint64_t run_end = 0;  // as in count_sparse
  for_each_nonzero_stretch(grid, [&](std::uint64_t cell, std::span<const double> stretch) {
    if (run_end == 0 || cell != run_end) {  // a new run; flush the open one
      if (run_end != 0) {
        runs.put_u64(run_start);
        runs.put_u64(run_end - run_start);
      }
      run_start = cell;
    }
    run_end = cell + stretch.size();
    values.put_f64s(stretch);
  });
  if (run_end != 0) {
    runs.put_u64(run_start);
    runs.put_u64(run_end - run_start);
  }
  EYEBALL_DCHECK(runs.remaining() == 0 && values.remaining() == 0,
                 "artifact grid runs drifted from count_sparse");

  const kde::Footprint& contour = analysis.footprint.contour;
  out.put_f64(contour.level);
  out.put_u64(contour.partitions.size());
  for (const kde::FootprintPartition& p : contour.partitions) {
    out.put_u64(p.cell_count);
    out.put_f64(p.area_km2);
    out.put_f64(p.mass);
    out.put_f64(p.peak_density);
    out.put_f64(p.peak_location.lat_deg);
    out.put_f64(p.peak_location.lon_deg);
    out.put_f64(p.min_lat);
    out.put_f64(p.max_lat);
    out.put_f64(p.min_lon);
    out.put_f64(p.max_lon);
  }
  out.put_u64(contour.boundary.size());
  for (const kde::BoundarySegment& s : contour.boundary) {
    out.put_f64(s.a.lat_deg);
    out.put_f64(s.a.lon_deg);
    out.put_f64(s.b.lat_deg);
    out.put_f64(s.b.lon_deg);
  }
  out.put_u64(analysis.footprint.peaks.size());
  for (const kde::Peak& peak : analysis.footprint.peaks) {
    out.put_f64(peak.location.lat_deg);
    out.put_f64(peak.location.lon_deg);
    out.put_f64(peak.density);
    out.put_f64(peak.score);
    out.put_u32(static_cast<std::uint32_t>(peak.row));
    out.put_u32(static_cast<std::uint32_t>(peak.col));
  }
  out.put_u64(analysis.pops.pops.size());
  for (const PopEntry& pop : analysis.pops.pops) {
    out.put_u32(pop.city);
    out.put_f64(pop.score);
    out.put_f64(pop.peak_density);
    out.put_f64(pop.peak_location.lat_deg);
    out.put_f64(pop.peak_location.lon_deg);
  }
  out.put_u64(analysis.pops.unmapped_peaks);
  out.put_u64(analysis.footprint.sample_count);
  out.put_f64(analysis.footprint.bandwidth_km);
  EYEBALL_DCHECK(out.remaining() == 0, "artifact record size drifted from put_record");
}

/// Decodes the grid part of a record (box through the nonzero values).
[[nodiscard]] util::Status decode_grid(Reader& r, std::size_t max_grid_cells,
                                       std::optional<kde::DensityGrid>& out) {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  double min_lat = 0.0, max_lat = 0.0, min_lon = 0.0, max_lon = 0.0;
  double cell_km = 0.0;
  if (!r.read_u64(rows) || !r.read_u64(cols) || !r.read_f64(min_lat) ||
      !r.read_f64(max_lat) || !r.read_f64(min_lon) || !r.read_f64(max_lon) ||
      !r.read_f64(cell_km)) {
    return truncated_record();
  }
  if (!std::isfinite(min_lat) || !std::isfinite(max_lat) || !std::isfinite(min_lon) ||
      !std::isfinite(max_lon) || min_lat > max_lat || min_lon > max_lon ||
      min_lat < -90.0 || max_lat > 90.0 || min_lon < -180.0 || max_lon > 180.0) {
    return corruption_at("grid bounding box out of range");
  }
  // The stored cell size is the POST-coarsening one, so one evaluation of
  // DensityGrid's shape formula (no budget loop) reproduces the counts.
  // 2^31 caps each axis so rows*cols cannot overflow u64 below.
  constexpr double kAxisCap = 2147483648.0;
  if (!(cell_km > 0.0) || !std::isfinite(cell_km)) {
    return corruption_at("grid shape inconsistent with its box and cell size");
  }
  const geo::BoundingBox box{min_lat, max_lat, min_lon, max_lon};
  const kde::DensityGrid::Shape shape = kde::DensityGrid::shape_for(box, cell_km);
  if (!(shape.rows < kAxisCap) || !(shape.cols < kAxisCap) ||
      static_cast<std::uint64_t>(shape.rows) != rows ||
      static_cast<std::uint64_t>(shape.cols) != cols) {
    return corruption_at("grid shape inconsistent with its box and cell size");
  }
  const std::uint64_t cells = rows * cols;  // both axes capped
  // Intact but larger than any grid the reading pipeline's estimator
  // builds: refuse before allocating it.
  if (cells > max_grid_cells) {
    return util::Status::config_mismatch(
        "artifact: a " + std::to_string(rows) + "x" + std::to_string(cols) +
        " grid is above the " + std::to_string(max_grid_cells) + "-cell KDE budget");
  }

  std::uint64_t run_count = 0;
  std::uint64_t nonzero_count = 0;
  std::span<const std::byte> runs;
  std::span<const std::byte> values;
  if (!r.read_count(kRunSize, run_count) || !r.take(run_count * kRunSize, runs) ||
      !r.read_count(8, nonzero_count) || !r.take(nonzero_count * 8, values)) {
    return truncated_record();
  }
  // Canonical runs — non-empty, strictly separated (maximal), inside the
  // grid, covering exactly the stored values, each bit-nonzero — make the
  // encoding unique for a given grid and bound this walk.  It checks every
  // run and value before anything is allocated, and notes each row's span:
  // the hull of its stored cells.
  std::vector<kde::DensityGrid::RowSpan> support(static_cast<std::size_t>(rows));
  Reader run_reader{runs};
  Reader value_reader{values};
  std::uint64_t prev_end = 0;
  for (std::uint64_t i = 0; i < run_count; ++i) {
    std::uint64_t start = 0;
    std::uint64_t count = 0;
    if (!run_reader.read_u64(start) || !run_reader.read_u64(count)) {
      return truncated_record();
    }
    if (count == 0) return corruption_at("empty grid run");
    if (i > 0 && start <= prev_end) {
      return corruption_at("grid runs overlap or are not maximal");
    }
    if (start > cells || count > cells - start) {
      return corruption_at("grid run outside its grid");
    }
    if (count > value_reader.remaining() / 8) {
      return corruption_at("grid runs cover more cells than the stored values");
    }
    for (std::uint64_t c = 0; c < count; ++c) {
      std::uint64_t bits = 0;
      if (!value_reader.read_u64(bits)) return truncated_record();
      if (bits == 0) return corruption_at("bit-zero value stored as a nonzero grid cell");
    }
    for_each_row_piece(start, count, cols, [&](std::size_t row, std::size_t col, std::size_t n) {
      support[row].cover(col, col + n);
    });
    prev_end = start + count;
  }
  if (value_reader.remaining() != 0) {
    return corruption_at("grid runs do not cover the stored nonzero values");
  }

  // The shape check above pinned rows/cols to exactly what this constructor
  // derives, so the cell count as the budget reproduces the original grid
  // without triggering the coarsening loop.
  kde::DensityGrid grid{box, cell_km, cells == 0 ? 1 : static_cast<std::size_t>(cells)};
  EYEBALL_DCHECK(grid.rows() == rows && grid.cols() == cols,
                 "artifact grid shape diverged from DensityGrid's derivation");
  grid.set_support(support);
  run_reader = Reader{runs};
  value_reader = Reader{values};
  for (std::uint64_t i = 0; i < run_count; ++i) {
    std::uint64_t start = 0;
    std::uint64_t count = 0;
    (void)run_reader.read_u64(start);
    (void)run_reader.read_u64(count);
    for_each_row_piece(start, count, cols, [&](std::size_t row, std::size_t col, std::size_t n) {
      const std::span<double> stored =
          grid.row_values(row).subspan(col - grid.row_support(row).lo, n);
      for (double& v : stored) (void)value_reader.read_f64(v);
    });
  }
  out.emplace(std::move(grid));
  return util::Status{};
}

/// Decodes one AS record onto `out`, checking each field as it goes.
[[nodiscard]] util::Status decode_record(Reader& r, std::size_t max_grid_cells,
                                         std::vector<AsAnalysis>& out) {
  std::uint32_t asn = 0;
  std::uint32_t level = 0;
  std::uint32_t continent = 0;
  Classification classification;
  std::uint64_t region_size = 0;
  std::span<const std::byte> region;
  if (!r.read_u32(asn) || !r.read_u32(level) || !r.read_u32(continent) ||
      !r.read_f64(classification.dominant_share) || !r.read_u64(region_size) ||
      !r.take(region_size, region)) {
    return truncated_record();
  }
  // ServingSnapshot::find binary-searches the decoded analyses.
  if (!out.empty() && net::Asn{asn} <= out.back().asn) {
    return corruption_at("AS record ASNs not strictly ascending");
  }
  if (level > static_cast<std::uint32_t>(topology::AsLevel::kGlobal)) {
    return corruption_at("AS level out of range");
  }
  if (continent > static_cast<std::uint32_t>(gazetteer::Continent::kOceania)) {
    return corruption_at("continent out of range");
  }
  classification.level = static_cast<topology::AsLevel>(level);
  classification.continent = static_cast<gazetteer::Continent>(continent);
  classification.dominant_region.assign(reinterpret_cast<const char*>(region.data()),
                                        region.size());

  std::optional<kde::DensityGrid> grid;
  if (util::Status status = decode_grid(r, max_grid_cells, grid); !status.ok()) {
    return status;
  }

  kde::Footprint contour;
  std::uint64_t count = 0;
  if (!r.read_f64(contour.level) || !r.read_count(kPartitionSize, count)) {
    return truncated_record();
  }
  contour.partitions.resize(static_cast<std::size_t>(count));
  for (kde::FootprintPartition& p : contour.partitions) {
    std::uint64_t cell_count = 0;
    if (!r.read_u64(cell_count) || !r.read_f64(p.area_km2) || !r.read_f64(p.mass) ||
        !r.read_f64(p.peak_density) || !r.read_f64(p.peak_location.lat_deg) ||
        !r.read_f64(p.peak_location.lon_deg) || !r.read_f64(p.min_lat) ||
        !r.read_f64(p.max_lat) || !r.read_f64(p.min_lon) || !r.read_f64(p.max_lon)) {
      return truncated_record();
    }
    p.cell_count = static_cast<std::size_t>(cell_count);
  }
  if (!r.read_count(kSegmentSize, count)) return truncated_record();
  contour.boundary.resize(static_cast<std::size_t>(count));
  for (kde::BoundarySegment& s : contour.boundary) {
    if (!r.read_f64(s.a.lat_deg) || !r.read_f64(s.a.lon_deg) || !r.read_f64(s.b.lat_deg) ||
        !r.read_f64(s.b.lon_deg)) {
      return truncated_record();
    }
  }

  if (!r.read_count(kPeakSize, count)) return truncated_record();
  std::vector<kde::Peak> peaks(static_cast<std::size_t>(count));
  for (kde::Peak& peak : peaks) {
    std::uint32_t row = 0;
    std::uint32_t col = 0;
    if (!r.read_f64(peak.location.lat_deg) || !r.read_f64(peak.location.lon_deg) ||
        !r.read_f64(peak.density) || !r.read_f64(peak.score) || !r.read_u32(row) ||
        !r.read_u32(col)) {
      return truncated_record();
    }
    if (row >= grid->rows() || col >= grid->cols()) {
      return corruption_at("peak cell outside its grid");
    }
    peak.row = row;
    peak.col = col;
  }

  PopFootprint pops;
  if (!r.read_count(kPopSize, count)) return truncated_record();
  pops.pops.resize(static_cast<std::size_t>(count));
  for (PopEntry& pop : pops.pops) {
    if (!r.read_u32(pop.city) || !r.read_f64(pop.score) || !r.read_f64(pop.peak_density) ||
        !r.read_f64(pop.peak_location.lat_deg) || !r.read_f64(pop.peak_location.lon_deg)) {
      return truncated_record();
    }
  }
  std::uint64_t unmapped_peaks = 0;
  std::uint64_t sample_count = 0;
  double bandwidth_km = 0.0;
  if (!r.read_u64(unmapped_peaks) || !r.read_u64(sample_count) ||
      !r.read_f64(bandwidth_km)) {
    return truncated_record();
  }
  pops.unmapped_peaks = static_cast<std::size_t>(unmapped_peaks);

  out.push_back(AsAnalysis{
      net::Asn{asn}, std::move(classification),
      AsFootprint{std::move(*grid), std::move(contour), std::move(peaks),
                  static_cast<std::size_t>(sample_count), bandwidth_km},
      std::move(pops)});
  return util::Status{};
}

}  // namespace

// ---- encoder --------------------------------------------------------------

util::Status ArtifactCodec::encode(const TargetDataset& dataset,
                                   std::span<const AsAnalysis> analyses,
                                   std::uint64_t epoch,
                                   std::uint64_t config_fingerprint,
                                   std::vector<std::byte>& out, std::size_t threads) {
  const std::span<const AsPeerSet> ases = dataset.ases();
  if (analyses.size() != ases.size()) {
    return util::Status::invalid_argument(
        "artifact: analyses must be parallel to the dataset's ASes");
  }
  if (dataset.stats().final_ases != ases.size()) {
    return util::Status::invalid_argument(
        "artifact: stats final_ases does not match the dataset's AS count");
  }
  for (std::size_t i = 0; i < ases.size(); ++i) {
    if (analyses[i].asn != ases[i].asn) {
      return util::Status::invalid_argument(
          "artifact: analyses out of order vs the dataset's ASes");
    }
  }

  // Size, then fill.  Both per-AS passes run largest grid first at
  // `threads`; each AS writes only its own slot or its own slice of the
  // image, so the bytes are the same at any thread count.
  std::vector<std::size_t> order(ases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto stored_cells = [&](std::size_t i) {
    return analyses[i].footprint.grid.stored_cells();
  };

  // Pass 1: measure every zero-suppressed grid and size its record.
  // record_end[i] is where record i ends inside the record region once
  // the serial prefix sum below has run.
  std::vector<SparseCounts> sparse(ases.size());
  std::vector<std::size_t> record_end(ases.size());
  util::for_each_largest_first(
      order, stored_cells,
      [&](std::size_t i) {
        sparse[i] = count_sparse(analyses[i].footprint.grid);
        record_end[i] = record_size(analyses[i], sparse[i]);
      },
      threads);
  std::partial_sum(record_end.begin(), record_end.end(), record_end.begin());
  const std::size_t records_size = record_end.empty() ? 0 : record_end.back();
  const std::size_t records_at = kHeaderSize + byte_io::stats_size(dataset.stats());

  // The one allocation of the image: header, stats, records, footer.
  std::vector<std::byte> buffer(records_at + records_size + byte_io::kFooterSize);
  const std::span<std::byte> image{buffer};
  Writer head{image.first(records_at)};
  head.put_bytes(kEnvelope.head_magic);
  head.put_u32(kFormatVersion);
  head.put_u64(epoch);
  head.put_u64(config_fingerprint);
  byte_io::put_stats(head, dataset.stats());
  EYEBALL_DCHECK(head.remaining() == 0, "artifact header or stats size drifted");

  // Pass 2: every record into its own slice of the record region.
  const std::span<std::byte> records = image.subspan(records_at, records_size);
  util::for_each_largest_first(
      order, stored_cells,
      [&](std::size_t i) {
        const std::size_t begin = i == 0 ? 0 : record_end[i - 1];
        Writer record{records.subspan(begin, record_end[i] - begin)};
        put_record(record, analyses[i], sparse[i]);
      },
      threads);
  byte_io::seal(image, kEnvelope.tail_magic);

  out = std::move(buffer);
  return util::Status{};
}

util::Status ArtifactCodec::write(util::FileSystem& fs, const std::string& path,
                                  const TargetDataset& dataset,
                                  std::span<const AsAnalysis> analyses,
                                  std::uint64_t epoch, std::uint64_t config_fingerprint,
                                  std::size_t threads) {
  std::vector<std::byte> bytes;
  if (util::Status status =
          encode(dataset, analyses, epoch, config_fingerprint, bytes, threads);
      !status.ok()) {
    return status;
  }
  return util::atomic_write_file(fs, path, bytes);
}

// ---- view: open + checks ---------------------------------------------------

util::Status ArtifactView::open(const std::string& path, util::FileSystem& fs,
                                ArtifactView& out) {
  ArtifactView view;
  if (util::Status status = fs.map_read_only(path, view.map_); !status.ok()) {
    return status;
  }
  if (util::Status status = view.load(view.map_.bytes()); !status.ok()) {
    return status.with_context("artifact '" + path + "'");
  }
  out = std::move(view);
  return util::Status{};
}

util::Status ArtifactView::from_borrowed(std::span<const std::byte> bytes,
                                         ArtifactView& out) {
  ArtifactView view;
  if (util::Status status = view.load(bytes); !status.ok()) return status;
  out = std::move(view);
  return util::Status{};
}

util::Status ArtifactView::load(std::span<const std::byte> bytes) {
  // 1. Envelope: size, magics, footer CRC, version (byte_io::open_envelope).
  std::span<const std::byte> body;
  if (util::Status status = byte_io::open_envelope(bytes, kEnvelope, body); !status.ok()) {
    return status;
  }
  // 2. Epoch, fingerprint and stats, then an AS count the record bytes
  // could hold.  The records themselves are checked as materialize()
  // decodes them.
  Reader reader{body};
  std::uint64_t epoch = 0;
  std::uint64_t config_fingerprint = 0;
  DatasetStats stats;
  if (!reader.read_u64(epoch) || !reader.read_u64(config_fingerprint)) {
    return corruption_at("header runs past the image");
  }
  if (util::Status status = byte_io::read_stats(reader, stats); !status.ok()) {
    return corruption_at(status.message().c_str());
  }
  std::span<const std::byte> records;
  static_cast<void>(reader.take(reader.remaining(), records));
  if (stats.final_ases > records.size() / kMinRecordSize) {
    return corruption_at("stats' final_ases exceeds what the AS records could hold");
  }

  // Commit — nothing above mutated the view's published state.
  records_ = records;
  epoch_ = epoch;
  config_fingerprint_ = config_fingerprint;
  stats_ = std::move(stats);
  return util::Status{};
}

// ---- view: decode ----------------------------------------------------------

util::Status ArtifactView::materialize(std::size_t max_grid_cells,
                                       std::vector<AsAnalysis>& out) const {
  Reader reader{records_};
  std::vector<AsAnalysis> analyses;
  analyses.reserve(as_count());  // bounded by the record bytes in load()
  for (std::size_t i = 0; i < as_count(); ++i) {
    if (util::Status status = decode_record(reader, max_grid_cells, analyses);
        !status.ok()) {
      return status.with_context("AS record " + std::to_string(i));
    }
  }
  if (reader.remaining() != 0) {
    return corruption_at("AS record bytes run past the last record");
  }
  out = std::move(analyses);
  return util::Status{};
}

}  // namespace eyeball::core
