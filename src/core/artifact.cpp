#include "core/artifact.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/byte_io.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"

// EYBART1 encoder / validator / in-place reader.  The format contract
// (layout, relocation rules, validation order) lives in artifact.hpp; this
// file keeps the byte-level constants and the two sides of the codec next
// to each other so they cannot drift.

namespace eyeball::core {

namespace {

using byte_io::load_f64;
using byte_io::load_u32;
using byte_io::load_u64;
using byte_io::put_f64;
using byte_io::put_u32;
using byte_io::put_u64;

// In-place f64 arena reads reinterpret mapped little-endian IEEE-754 bytes;
// everything else is decoded byte-by-byte (endian-portable).  The
// reinterpret path is the hot one and is only correct on a little-endian
// host, which every supported target is.
static_assert(std::endian::native == std::endian::little,
              "EYBART1 in-place reads require a little-endian host");
static_assert(sizeof(double) == 8 && std::numeric_limits<double>::is_iec559,
              "EYBART1 stores doubles as IEEE-754 bit patterns");

constexpr std::array<std::byte, 8> kHeadMagic{
    std::byte{'E'}, std::byte{'Y'}, std::byte{'B'}, std::byte{'A'},
    std::byte{'R'}, std::byte{'T'}, std::byte{'1'}, std::byte{0}};
constexpr std::array<std::byte, 8> kTailMagic{
    std::byte{'E'}, std::byte{'Y'}, std::byte{'B'}, std::byte{'A'},
    std::byte{'R'}, std::byte{'E'}, std::byte{'N'}, std::byte{'D'}};

constexpr std::size_t kHeaderSize = 56;
constexpr std::size_t kMetaCrcOffset = 48;  // u32 at [48], reserved u32 at [52]
constexpr std::size_t kTableEntrySize = 40;
constexpr std::size_t kTailSize = 8;

constexpr std::size_t kAsEntrySize = 224;
constexpr std::size_t kGridRunRecordSize = 16;
constexpr std::size_t kPartitionRecordSize = 80;
constexpr std::size_t kSegmentRecordSize = 32;
constexpr std::size_t kPeakRecordSize = 40;
constexpr std::size_t kPopRecordSize = 40;

/// Section ids, in the exact file order the table must carry.
enum SectionId : std::uint32_t {
  kSecStats = 1,
  kSecAsIndex = 2,
  kSecAsnOrder = 3,
  kSecGridRuns = 4,
  kSecGridValues = 5,
  kSecPartitions = 6,
  kSecBoundary = 7,
  kSecPeaks = 8,
  kSecPops = 9,
  kSecRegions = 10,
};
constexpr std::size_t kSectionCount = 10;

[[nodiscard]] constexpr std::size_t align8(std::size_t n) noexcept {
  return (n + 7U) & ~std::size_t{7};
}

// ---- byte helpers beyond the shared layer (core/byte_io.hpp) -------------

void put_u32_at(std::span<std::byte> out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xffU);
  }
}

void pad8(std::vector<std::byte>& out) {
  while ((out.size() & 7U) != 0) out.push_back(std::byte{0});
}

[[nodiscard]] util::Status corruption_at(const char* what) {
  return util::Status::corruption(std::string{"artifact: "} + what);
}

}  // namespace

// ---- encoder --------------------------------------------------------------

util::Status ArtifactCodec::encode(const TargetDataset& dataset,
                                   std::span<const AsAnalysis> analyses,
                                   std::uint64_t epoch,
                                   std::uint64_t config_fingerprint,
                                   std::vector<std::byte>& out) {
  const std::span<const AsPeerSet> ases = dataset.ases();
  if (analyses.size() != ases.size()) {
    return util::Status::invalid_argument(
        "artifact: analyses must be parallel to the dataset's ASes");
  }
  const std::size_t n = ases.size();

  // -- stats section --------------------------------------------------------
  std::vector<std::byte> stats_pay;
  byte_io::put_stats(stats_pay, dataset.stats());

  // -- ASN order (TargetDataset::find's index, persisted) -------------------
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0U);
  // Stable, exactly like TargetDataset's construction: duplicates keep
  // dataset order, so find() through the view returns the same entry.
  std::stable_sort(order.begin(), order.end(),
                   [&ases](std::uint32_t a, std::uint32_t b) {
                     return net::value_of(ases[a].asn) < net::value_of(ases[b].asn);
                   });
  std::vector<std::byte> order_pay;
  order_pay.reserve(align8(n * 4));
  for (const std::uint32_t index : order) put_u32(order_pay, index);
  pad8(order_pay);

  // -- per-AS index + arenas ------------------------------------------------
  std::vector<std::byte> index_pay;
  std::vector<std::byte> runs_pay;
  std::vector<std::byte> grid_pay;
  std::vector<std::byte> parts_pay;
  std::vector<std::byte> bound_pay;
  std::vector<std::byte> peaks_pay;
  std::vector<std::byte> pops_pay;
  std::vector<std::byte> regions_pay;
  index_pay.reserve(n * kAsEntrySize);

  for (std::size_t i = 0; i < n; ++i) {
    const AsPeerSet& as = ases[i];
    const AsAnalysis& analysis = analyses[i];
    if (analysis.asn != as.asn) {
      return util::Status::invalid_argument(
          "artifact: analyses out of order vs the dataset's ASes");
    }
    const kde::DensityGrid& grid = analysis.footprint.grid;
    const kde::Footprint& contour = analysis.footprint.contour;

    // Zero-suppress the grid before writing the index entry: maximal runs
    // of bit-nonzero cells into the run arena, their values (and only
    // those) into the nonzero arena.  "Zero" means the u64 bit pattern is
    // exactly zero — -0.0 and denormals count as nonzero and round-trip
    // bit-exactly.
    const std::uint64_t grid_run_offset = runs_pay.size() / kGridRunRecordSize;
    const std::uint64_t grid_value_offset = grid_pay.size() / 8;
    {
      const std::span<const double> values = grid.values();
      std::uint64_t run_start = 0;
      bool in_run = false;
      for (std::uint64_t c = 0; c < values.size(); ++c) {
        if (std::bit_cast<std::uint64_t>(values[c]) != 0) {
          if (!in_run) {
            in_run = true;
            run_start = c;
          }
          put_f64(grid_pay, values[c]);
        } else if (in_run) {
          in_run = false;
          put_u64(runs_pay, run_start);
          put_u64(runs_pay, c - run_start);
        }
      }
      if (in_run) {
        put_u64(runs_pay, run_start);
        put_u64(runs_pay, values.size() - run_start);
      }
    }
    const std::uint64_t grid_run_count =
        runs_pay.size() / kGridRunRecordSize - grid_run_offset;
    const std::uint64_t grid_nonzero_count = grid_pay.size() / 8 - grid_value_offset;

    put_u32(index_pay, net::value_of(as.asn));
    put_u32(index_pay, static_cast<std::uint32_t>(analysis.classification.level));
    put_u32(index_pay, static_cast<std::uint32_t>(analysis.classification.continent));
    put_u32(index_pay, 0);  // reserved
    put_f64(index_pay, analysis.classification.dominant_share);
    put_u64(index_pay, regions_pay.size());
    put_u64(index_pay, analysis.classification.dominant_region.size());
    put_u64(index_pay, grid_run_offset);
    put_u64(index_pay, grid_run_count);
    put_u64(index_pay, grid_value_offset);
    put_u64(index_pay, grid_nonzero_count);
    put_u64(index_pay, grid.rows());
    put_u64(index_pay, grid.cols());
    put_f64(index_pay, grid.box().min_lat());
    put_f64(index_pay, grid.box().max_lat());
    put_f64(index_pay, grid.box().min_lon());
    put_f64(index_pay, grid.box().max_lon());
    put_f64(index_pay, grid.cell_km());
    put_f64(index_pay, contour.level);
    put_u64(index_pay, parts_pay.size() / kPartitionRecordSize);
    put_u64(index_pay, contour.partitions.size());
    put_u64(index_pay, bound_pay.size() / kSegmentRecordSize);
    put_u64(index_pay, contour.boundary.size());
    put_u64(index_pay, peaks_pay.size() / kPeakRecordSize);
    put_u64(index_pay, analysis.footprint.peaks.size());
    put_u64(index_pay, pops_pay.size() / kPopRecordSize);
    put_u64(index_pay, analysis.pops.pops.size());
    put_u64(index_pay, analysis.pops.unmapped_peaks);
    put_u64(index_pay, analysis.footprint.sample_count);
    put_f64(index_pay, analysis.footprint.bandwidth_km);

    for (const char c : analysis.classification.dominant_region) {
      regions_pay.push_back(static_cast<std::byte>(c));
    }
    for (const kde::FootprintPartition& p : contour.partitions) {
      put_u64(parts_pay, p.cell_count);
      put_f64(parts_pay, p.area_km2);
      put_f64(parts_pay, p.mass);
      put_f64(parts_pay, p.peak_density);
      put_f64(parts_pay, p.peak_location.lat_deg);
      put_f64(parts_pay, p.peak_location.lon_deg);
      put_f64(parts_pay, p.min_lat);
      put_f64(parts_pay, p.max_lat);
      put_f64(parts_pay, p.min_lon);
      put_f64(parts_pay, p.max_lon);
    }
    for (const kde::BoundarySegment& s : contour.boundary) {
      put_f64(bound_pay, s.a.lat_deg);
      put_f64(bound_pay, s.a.lon_deg);
      put_f64(bound_pay, s.b.lat_deg);
      put_f64(bound_pay, s.b.lon_deg);
    }
    for (const kde::Peak& peak : analysis.footprint.peaks) {
      put_f64(peaks_pay, peak.location.lat_deg);
      put_f64(peaks_pay, peak.location.lon_deg);
      put_f64(peaks_pay, peak.density);
      put_f64(peaks_pay, peak.score);
      put_u32(peaks_pay, static_cast<std::uint32_t>(peak.row));
      put_u32(peaks_pay, static_cast<std::uint32_t>(peak.col));
    }
    for (const PopEntry& pop : analysis.pops.pops) {
      put_u32(pops_pay, pop.city);
      put_u32(pops_pay, 0);  // reserved
      put_f64(pops_pay, pop.score);
      put_f64(pops_pay, pop.peak_density);
      put_f64(pops_pay, pop.peak_location.lat_deg);
      put_f64(pops_pay, pop.peak_location.lon_deg);
    }
  }
  pad8(regions_pay);

  struct SectionPlan {
    std::uint32_t id;
    const std::vector<std::byte>* payload;
  };
  const SectionPlan plan[kSectionCount] = {
      {kSecStats, &stats_pay},       {kSecAsIndex, &index_pay},
      {kSecAsnOrder, &order_pay},    {kSecGridRuns, &runs_pay},
      {kSecGridValues, &grid_pay},   {kSecPartitions, &parts_pay},
      {kSecBoundary, &bound_pay},    {kSecPeaks, &peaks_pay},
      {kSecPops, &pops_pay},         {kSecRegions, &regions_pay},
  };

  // -- assembly: header + table + packed sections + tail --------------------
  const std::size_t table_size = kSectionCount * kTableEntrySize;
  std::size_t cursor = kHeaderSize + table_size;
  std::uint64_t offsets[kSectionCount];
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    cursor = align8(cursor);
    offsets[s] = cursor;
    cursor += plan[s].payload->size();
  }
  const std::size_t file_size = align8(cursor) + kTailSize;

  std::vector<std::byte> buffer;
  buffer.reserve(file_size);
  buffer.insert(buffer.end(), kHeadMagic.begin(), kHeadMagic.end());
  put_u32(buffer, kFormatVersion);
  put_u32(buffer, static_cast<std::uint32_t>(kSectionCount));
  put_u64(buffer, epoch);
  put_u64(buffer, config_fingerprint);
  put_u64(buffer, file_size);
  put_u64(buffer, n);
  put_u32(buffer, 0);  // meta CRC, patched below
  put_u32(buffer, 0);  // reserved
  EYEBALL_DCHECK(buffer.size() == kHeaderSize, "artifact header layout drifted");

  for (std::size_t s = 0; s < kSectionCount; ++s) {
    put_u32(buffer, plan[s].id);
    put_u32(buffer, 0);  // reserved
    put_u64(buffer, offsets[s]);
    put_u64(buffer, plan[s].payload->size());
    put_u64(buffer, 0);  // reserved
    put_u32(buffer, util::crc32c_fast(*plan[s].payload));
    put_u32(buffer, 0);  // reserved
  }

  // Meta CRC covers the header (with the CRC field still zero) + the table.
  const std::uint32_t meta_crc = util::crc32c_fast(buffer);
  put_u32_at(buffer, kMetaCrcOffset, meta_crc);

  for (std::size_t s = 0; s < kSectionCount; ++s) {
    while (buffer.size() < offsets[s]) buffer.push_back(std::byte{0});
    buffer.insert(buffer.end(), plan[s].payload->begin(), plan[s].payload->end());
  }
  while ((buffer.size() & 7U) != 0) buffer.push_back(std::byte{0});
  buffer.insert(buffer.end(), kTailMagic.begin(), kTailMagic.end());
  EYEBALL_DCHECK(buffer.size() == file_size, "artifact assembly size drifted");

  out = std::move(buffer);
  return util::Status{};
}

util::Status ArtifactCodec::write(util::FileSystem& fs, const std::string& path,
                                  const TargetDataset& dataset,
                                  std::span<const AsAnalysis> analyses,
                                  std::uint64_t epoch, std::uint64_t config_fingerprint) {
  std::vector<std::byte> bytes;
  if (util::Status status = encode(dataset, analyses, epoch, config_fingerprint, bytes);
      !status.ok()) {
    return status;
  }
  return util::atomic_write_file(fs, path, bytes);
}

// ---- view: open + validation ----------------------------------------------

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

util::Status ArtifactView::open(const std::string& path, ArtifactView& out) {
  return open(path, util::local_filesystem(), out);
}

util::Status ArtifactView::from_bytes(std::vector<std::byte> bytes, ArtifactView& out) {
  ArtifactView view;
  view.owned_ = std::move(bytes);
  if (util::Status status = view.load(view.owned_); !status.ok()) return status;
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
  bytes_ = bytes;

  // 1. Envelope: sizes and magics.  Every truncation length fails here (the
  // recorded file size no longer matches) or at the meta-region bound.
  if (bytes.size() < kHeaderSize + kTailSize) {
    return corruption_at("file shorter than the fixed envelope");
  }
  // The encoder pads every section to 8 bytes and all fixed regions are
  // 8-aligned, so a well-formed image's size is always a multiple of 8.
  // Rejecting unaligned sizes here keeps payload_end 8-aligned, which the
  // section-table walk's align8 packing arithmetic relies on.
  if (bytes.size() % 8 != 0) {
    return corruption_at("file size is not 8-aligned");
  }
  if (!std::equal(kHeadMagic.begin(), kHeadMagic.end(), bytes.begin())) {
    return corruption_at("bad head magic");
  }
  const std::uint32_t version = load_u32(bytes, 8);
  const std::uint32_t section_count = load_u32(bytes, 12);
  const std::uint64_t recorded_size = load_u64(bytes, 32);
  // Bound the table before touching it; 1024 is far past any real format
  // revision and keeps the arithmetic overflow-free.
  if (section_count > 1024) return corruption_at("implausible section count");
  const std::size_t table_size = section_count * kTableEntrySize;
  if (bytes.size() < kHeaderSize + table_size + kTailSize) {
    return corruption_at("file truncated inside the section table");
  }
  if (recorded_size != bytes.size()) {
    return corruption_at("recorded file size does not match the image");
  }
  if (!std::equal(kTailMagic.begin(), kTailMagic.end(),
                  bytes.end() - static_cast<std::ptrdiff_t>(kTailSize))) {
    return corruption_at("bad tail magic");
  }

  // 2. Meta CRC over header + table (with the CRC field zeroed), THEN the
  // version check: a flipped version byte is kCorruption, a CRC-valid
  // other version is a genuine kVersionMismatch.  The CRC span follows the
  // header's own section count, so an intact v1 image (11 table entries)
  // passes it and is refused as skew, never quarantined as corruption.
  {
    std::vector<std::byte> meta(bytes.begin(),
                                bytes.begin() + static_cast<std::ptrdiff_t>(
                                                    kHeaderSize + table_size));
    const std::uint32_t stored_crc = load_u32(meta, kMetaCrcOffset);
    put_u32_at(meta, kMetaCrcOffset, 0);
    if (util::crc32c_fast(meta) != stored_crc) {
      return corruption_at("meta CRC mismatch (header or section table damaged)");
    }
  }
  if (version != ArtifactCodec::kFormatVersion) {
    return util::Status::version_mismatch(
        "artifact: format version " + std::to_string(version) + ", this build reads " +
        std::to_string(ArtifactCodec::kFormatVersion));
  }
  if (section_count != kSectionCount) {
    return corruption_at("wrong section count for this format version");
  }
  if (load_u32(bytes, kMetaCrcOffset + 4) != 0) {
    return corruption_at("nonzero reserved header field");
  }
  const std::uint64_t epoch = load_u64(bytes, 16);
  const std::uint64_t fingerprint = load_u64(bytes, 24);
  const std::uint64_t as_count64 = load_u64(bytes, 40);
  if (as_count64 > bytes.size() / kAsEntrySize) {
    return corruption_at("AS count exceeds what the image could hold");
  }
  const auto n = static_cast<std::size_t>(as_count64);

  // 3. Section-table walk: exact ids, reserved fields zero, exact packing.
  struct Section {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
  };
  std::array<Section, kSectionCount> sections;
  {
    const std::size_t payload_end = bytes.size() - kTailSize;
    std::uint64_t cursor = kHeaderSize + table_size;
    for (std::size_t s = 0; s < kSectionCount; ++s) {
      const std::size_t at = kHeaderSize + s * kTableEntrySize;
      Section& sec = sections[s];
      const std::uint32_t id = load_u32(bytes, at);
      sec.offset = load_u64(bytes, at + 8);
      sec.size = load_u64(bytes, at + 16);
      sec.crc = load_u32(bytes, at + 32);
      if (id != s + 1) return corruption_at("section ids out of order");
      if (load_u32(bytes, at + 4) != 0 || load_u64(bytes, at + 24) != 0 ||
          load_u32(bytes, at + 36) != 0) {
        return corruption_at("nonzero reserved section-table field");
      }
      // Exact packing: each section starts at the previous one's padded
      // end.  This single equality makes out-of-bounds, overlapping and
      // misaligned offset-table entries all typed errors.
      const std::uint64_t expected = align8(cursor);
      if (sec.offset != expected) {
        return corruption_at("section offset breaks the packing rule");
      }
      // Guard the offset before subtracting: with an unaligned payload_end
      // the align8 packing rule could otherwise place `expected` past the
      // end and the u64 difference would wrap.  The alignment check in the
      // envelope makes that unreachable, but keep the arithmetic locally
      // safe rather than depending on a check 80 lines away.
      if (sec.offset > payload_end || sec.size > payload_end - sec.offset) {
        return corruption_at("section runs past the end of the image");
      }
      // Padding between sections is dead space; require zeros so no byte of
      // the image is outside some check's coverage.
      for (std::uint64_t p = cursor; p < sec.offset; ++p) {
        if (bytes[p] != std::byte{0}) return corruption_at("nonzero section padding");
      }
      cursor = sec.offset + sec.size;
    }
    for (std::uint64_t p = cursor; p < payload_end; ++p) {
      if (bytes[p] != std::byte{0}) return corruption_at("nonzero trailing padding");
    }
  }

  // 4. Payload CRCs (hardware-accelerated; this is the only full read of
  // the image at open — everything later is query-driven page touches).
  std::array<std::span<const std::byte>, kSectionCount> payload;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    payload[s] = bytes.subspan(sections[s].offset, sections[s].size);
    if (util::crc32c_fast(payload[s]) != sections[s].crc) {
      return corruption_at("section CRC mismatch");
    }
  }

  // 5. Structural walk.
  const std::span<const std::byte> stats_pay = payload[kSecStats - 1];
  const std::span<const std::byte> index_pay = payload[kSecAsIndex - 1];
  const std::span<const std::byte> order_pay = payload[kSecAsnOrder - 1];
  const std::span<const std::byte> runs_pay = payload[kSecGridRuns - 1];
  const std::span<const std::byte> grid_pay = payload[kSecGridValues - 1];
  const std::span<const std::byte> parts_pay = payload[kSecPartitions - 1];
  const std::span<const std::byte> bound_pay = payload[kSecBoundary - 1];
  const std::span<const std::byte> peaks_pay = payload[kSecPeaks - 1];
  const std::span<const std::byte> pops_pay = payload[kSecPops - 1];
  const std::span<const std::byte> regions_pay = payload[kSecRegions - 1];

  DatasetStats stats;
  if (!byte_io::decode_stats(stats_pay, stats)) {
    return corruption_at("stats window count does not match the section size");
  }

  // Arena element counts.
  if (index_pay.size() != n * kAsEntrySize) {
    return corruption_at("AS index size does not match the AS count");
  }
  if (runs_pay.size() % kGridRunRecordSize != 0 || grid_pay.size() % 8 != 0 ||
      parts_pay.size() % kPartitionRecordSize != 0 ||
      bound_pay.size() % kSegmentRecordSize != 0 ||
      peaks_pay.size() % kPeakRecordSize != 0 || pops_pay.size() % kPopRecordSize != 0) {
    return corruption_at("arena size not a multiple of its record size");
  }
  const std::uint64_t total_runs = runs_pay.size() / kGridRunRecordSize;
  const std::uint64_t total_values = grid_pay.size() / 8;
  const std::uint64_t total_parts = parts_pay.size() / kPartitionRecordSize;
  const std::uint64_t total_segments = bound_pay.size() / kSegmentRecordSize;
  const std::uint64_t total_peaks = peaks_pay.size() / kPeakRecordSize;
  const std::uint64_t total_pops = pops_pay.size() / kPopRecordSize;

  // Per-AS entries: decode, then check that the ranges exactly tile every
  // arena in AS order — the relocation contract that makes in-place reads
  // safe without per-query bounds checks.
  std::vector<AsEntry> entries;
  entries.reserve(n);
  std::uint64_t run_cur = 0, value_cur = 0, part_cur = 0, seg_cur = 0,
                peak_cur = 0, pop_cur = 0, region_cur = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = i * kAsEntrySize;
    AsEntry e;
    e.asn = load_u32(index_pay, at);
    e.level = load_u32(index_pay, at + 4);
    e.continent = load_u32(index_pay, at + 8);
    e.dominant_share = load_f64(index_pay, at + 16);
    e.region_offset = load_u64(index_pay, at + 24);
    e.region_size = load_u64(index_pay, at + 32);
    e.grid_run_offset = load_u64(index_pay, at + 40);
    e.grid_run_count = load_u64(index_pay, at + 48);
    e.grid_value_offset = load_u64(index_pay, at + 56);
    e.grid_nonzero_count = load_u64(index_pay, at + 64);
    e.grid_rows = load_u64(index_pay, at + 72);
    e.grid_cols = load_u64(index_pay, at + 80);
    e.min_lat = load_f64(index_pay, at + 88);
    e.max_lat = load_f64(index_pay, at + 96);
    e.min_lon = load_f64(index_pay, at + 104);
    e.max_lon = load_f64(index_pay, at + 112);
    e.cell_km = load_f64(index_pay, at + 120);
    e.contour_level = load_f64(index_pay, at + 128);
    e.partition_offset = load_u64(index_pay, at + 136);
    e.partition_count = load_u64(index_pay, at + 144);
    e.boundary_offset = load_u64(index_pay, at + 152);
    e.boundary_count = load_u64(index_pay, at + 160);
    e.peak_offset = load_u64(index_pay, at + 168);
    e.peak_count = load_u64(index_pay, at + 176);
    e.pop_offset = load_u64(index_pay, at + 184);
    e.pop_count = load_u64(index_pay, at + 192);
    e.unmapped_peaks = load_u64(index_pay, at + 200);
    e.sample_count = load_u64(index_pay, at + 208);
    e.bandwidth_km = load_f64(index_pay, at + 216);

    if (e.level > static_cast<std::uint32_t>(topology::AsLevel::kGlobal)) {
      return corruption_at("AS level out of range");
    }
    if (e.continent > static_cast<std::uint32_t>(gazetteer::Continent::kOceania)) {
      return corruption_at("continent out of range");
    }
    if (e.region_offset != region_cur || e.region_size > regions_pay.size() - region_cur) {
      return corruption_at("region string range breaks the tiling rule");
    }
    region_cur += e.region_size;
    // Grid geometry: box sane, and rows/cols exactly what DensityGrid
    // derives from (box, cell_km) — so materialize() can rebuild the
    // identical grid without the constructor throwing on hostile inputs.
    if (!std::isfinite(e.min_lat) || !std::isfinite(e.max_lat) ||
        !std::isfinite(e.min_lon) || !std::isfinite(e.max_lon) ||
        e.min_lat > e.max_lat || e.min_lon > e.max_lon || e.min_lat < -90.0 ||
        e.max_lat > 90.0 || e.min_lon < -180.0 || e.max_lon > 180.0) {
      return corruption_at("grid bounding box out of range");
    }
    // The stored cell size is the POST-coarsening one, so one evaluation of
    // DensityGrid's shape formula (no budget loop) reproduces the counts.
    // 2^31 caps each axis so rows*cols cannot overflow u64 below; a real
    // grid is orders of magnitude smaller (DensityGrid's cell budget).
    constexpr double kAxisCap = 2147483648.0;
    if (!(e.cell_km > 0.0) || !std::isfinite(e.cell_km)) {
      return corruption_at("grid shape inconsistent with its box and cell size");
    }
    const kde::DensityGrid::Shape shape = kde::DensityGrid::shape_for(
        geo::BoundingBox{e.min_lat, e.max_lat, e.min_lon, e.max_lon}, e.cell_km);
    if (!(shape.rows < kAxisCap) || !(shape.cols < kAxisCap) ||
        static_cast<std::uint64_t>(shape.rows) != e.grid_rows ||
        static_cast<std::uint64_t>(shape.cols) != e.grid_cols) {
      return corruption_at("grid shape inconsistent with its box and cell size");
    }
    const std::uint64_t cells = e.grid_rows * e.grid_cols;  // both axes capped
    // Zero-suppressed grid: the run and value ranges tile their arenas like
    // every other arena, and the runs themselves must be canonical —
    // non-empty, strictly separated (maximal), inside the grid, covering
    // exactly the declared number of values, and every stored value
    // bit-nonzero.  Canonical form makes encode bytes unique for a given
    // grid and bounds materialize()'s scatter without per-cell checks.
    if (e.grid_run_offset != run_cur || e.grid_run_count > total_runs - run_cur) {
      return corruption_at("grid run range breaks the tiling rule");
    }
    if (e.grid_value_offset != value_cur ||
        e.grid_nonzero_count > total_values - value_cur) {
      return corruption_at("grid value range breaks the tiling rule");
    }
    {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (std::uint64_t r = 0; r < e.grid_run_count; ++r) {
        const std::size_t run_at =
            static_cast<std::size_t>(run_cur + r) * kGridRunRecordSize;
        const std::uint64_t start = load_u64(runs_pay, run_at);
        const std::uint64_t count = load_u64(runs_pay, run_at + 8);
        if (count == 0) return corruption_at("empty grid run");
        if (r > 0 && start <= prev_end) {
          return corruption_at("grid runs overlap or are not maximal");
        }
        if (start > cells || count > cells - start) {
          return corruption_at("grid run outside its grid");
        }
        prev_end = start + count;
        covered += count;
      }
      if (covered != e.grid_nonzero_count) {
        return corruption_at("grid runs do not cover the declared nonzero count");
      }
      for (std::uint64_t v = 0; v < e.grid_nonzero_count; ++v) {
        if (load_u64(grid_pay, static_cast<std::size_t>(value_cur + v) * 8) == 0) {
          return corruption_at("bit-zero value stored in the nonzero grid arena");
        }
      }
    }
    run_cur += e.grid_run_count;
    value_cur += e.grid_nonzero_count;
    if (e.partition_offset != part_cur || e.partition_count > total_parts - part_cur) {
      return corruption_at("partition range breaks the tiling rule");
    }
    part_cur += e.partition_count;
    if (e.boundary_offset != seg_cur || e.boundary_count > total_segments - seg_cur) {
      return corruption_at("boundary range breaks the tiling rule");
    }
    seg_cur += e.boundary_count;
    if (e.peak_offset != peak_cur || e.peak_count > total_peaks - peak_cur) {
      return corruption_at("peak range breaks the tiling rule");
    }
    for (std::uint64_t p = 0; p < e.peak_count; ++p) {
      const std::size_t peak_at =
          static_cast<std::size_t>(peak_cur + p) * kPeakRecordSize;
      if (load_u32(peaks_pay, peak_at + 32) >= e.grid_rows ||
          load_u32(peaks_pay, peak_at + 36) >= e.grid_cols) {
        return corruption_at("peak cell outside its grid");
      }
    }
    peak_cur += e.peak_count;
    if (e.pop_offset != pop_cur || e.pop_count > total_pops - pop_cur) {
      return corruption_at("PoP range breaks the tiling rule");
    }
    pop_cur += e.pop_count;
    entries.push_back(e);
  }
  if (run_cur != total_runs || value_cur != total_values ||
      part_cur != total_parts || seg_cur != total_segments || peak_cur != total_peaks ||
      pop_cur != total_pops) {
    return corruption_at("arena larger than the union of AS ranges");
  }
  if (regions_pay.size() - region_cur >= 8) {
    return corruption_at("region arena larger than the union of AS ranges");
  }
  for (std::size_t p = static_cast<std::size_t>(region_cur); p < regions_pay.size();
       ++p) {
    if (regions_pay[p] != std::byte{0}) return corruption_at("nonzero region padding");
  }

  // ASN order: a stable-sorted permutation of [0, n).
  if (order_pay.size() != align8(n * 4)) {
    return corruption_at("ASN order size does not match the AS count");
  }
  for (std::size_t p = n * 4; p < order_pay.size(); ++p) {
    if (order_pay[p] != std::byte{0}) return corruption_at("nonzero ASN order padding");
  }
  {
    std::vector<bool> seen(n, false);
    std::uint32_t prev_asn = 0;
    std::uint32_t prev_index = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t index = load_u32(order_pay, k * 4);
      if (index >= n || seen[index]) {
        return corruption_at("ASN order is not a permutation of the ASes");
      }
      seen[index] = true;
      const std::uint32_t asn = entries[index].asn;
      if (k > 0 && (asn < prev_asn || (asn == prev_asn && index <= prev_index))) {
        return corruption_at("ASN order is not stably sorted");
      }
      prev_asn = asn;
      prev_index = index;
    }
  }

  // The f64 arena is read in place; its 8-alignment is guaranteed by the
  // section packing as long as the image base itself is 8-aligned (true for
  // mmap and heap buffers; a borrowed span could violate it).
  if ((reinterpret_cast<std::uintptr_t>(grid_pay.data()) & 7U) != 0) {
    return util::Status::invalid_argument(
        "artifact: image base must be 8-byte aligned for in-place reads");
  }

  // Commit — nothing above mutated the view's published state.
  opened_ = true;
  epoch_ = epoch;
  config_fingerprint_ = fingerprint;
  stats_ = std::move(stats);
  entries_ = std::move(entries);
  asn_order_ = order_pay;
  grid_runs_ = runs_pay;
  // In-place reinterpret of the validated, 8-aligned arena as its on-disk
  // element type; the static_asserts at the top of this file pin the
  // little-endian IEEE-754 representation this relies on.
  grid_values_ = {reinterpret_cast<const double*>(grid_pay.data()), total_values};
  partitions_ = parts_pay;
  boundary_ = bound_pay;
  peaks_ = peaks_pay;
  pops_ = pops_pay;
  regions_ = regions_pay;
  return util::Status{};
}

std::optional<std::size_t> ArtifactView::find_index(net::Asn asn) const noexcept {
  const std::uint32_t key = net::value_of(asn);
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint32_t mid_asn = entries_[load_u32(asn_order_, mid * 4)].asn;
    if (mid_asn < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == entries_.size()) return std::nullopt;
  const std::uint32_t index = load_u32(asn_order_, lo * 4);
  if (entries_[index].asn != key) return std::nullopt;
  return index;
}

std::optional<ArtifactView::AsView> ArtifactView::find(net::Asn asn) const noexcept {
  const std::optional<std::size_t> index = find_index(asn);
  if (!index.has_value()) return std::nullopt;
  return as_at(*index);
}

// ---- view: per-AS accessors ------------------------------------------------

net::Asn ArtifactView::AsView::asn() const noexcept {
  return net::Asn{view_->entries_[index_].asn};
}

topology::AsLevel ArtifactView::AsView::level() const noexcept {
  return static_cast<topology::AsLevel>(view_->entries_[index_].level);
}

gazetteer::Continent ArtifactView::AsView::continent() const noexcept {
  return static_cast<gazetteer::Continent>(view_->entries_[index_].continent);
}

double ArtifactView::AsView::dominant_share() const noexcept {
  return view_->entries_[index_].dominant_share;
}

std::string_view ArtifactView::AsView::dominant_region() const noexcept {
  const AsEntry& e = view_->entries_[index_];
  return {reinterpret_cast<const char*>(view_->regions_.data()) + e.region_offset,
          static_cast<std::size_t>(e.region_size)};
}

std::size_t ArtifactView::AsView::grid_rows() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].grid_rows);
}

std::size_t ArtifactView::AsView::grid_cols() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].grid_cols);
}

geo::BoundingBox ArtifactView::AsView::grid_box() const {
  const AsEntry& e = view_->entries_[index_];
  return {e.min_lat, e.max_lat, e.min_lon, e.max_lon};
}

double ArtifactView::AsView::grid_cell_km() const noexcept {
  return view_->entries_[index_].cell_km;
}

std::size_t ArtifactView::AsView::grid_run_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].grid_run_count);
}

GridRun ArtifactView::AsView::grid_run(std::size_t i) const noexcept {
  const AsEntry& e = view_->entries_[index_];
  EYEBALL_DCHECK(i < e.grid_run_count, "artifact grid run read out of bounds");
  const std::span<const std::byte> arena = view_->grid_runs_;
  const std::size_t at =
      static_cast<std::size_t>(e.grid_run_offset + i) * kGridRunRecordSize;
  return GridRun{load_u64(arena, at), load_u64(arena, at + 8)};
}

std::size_t ArtifactView::AsView::grid_nonzero_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].grid_nonzero_count);
}

std::span<const double> ArtifactView::AsView::grid_nonzero_values() const noexcept {
  const AsEntry& e = view_->entries_[index_];
  return view_->grid_values_.subspan(static_cast<std::size_t>(e.grid_value_offset),
                                     static_cast<std::size_t>(e.grid_nonzero_count));
}

double ArtifactView::AsView::contour_level() const noexcept {
  return view_->entries_[index_].contour_level;
}

std::size_t ArtifactView::AsView::partition_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].partition_count);
}

kde::FootprintPartition ArtifactView::AsView::partition(std::size_t i) const noexcept {
  const AsEntry& e = view_->entries_[index_];
  EYEBALL_DCHECK(i < e.partition_count, "artifact partition read out of bounds");
  const std::span<const std::byte> arena = view_->partitions_;
  const std::size_t at =
      static_cast<std::size_t>(e.partition_offset + i) * kPartitionRecordSize;
  kde::FootprintPartition p;
  p.cell_count = static_cast<std::size_t>(load_u64(arena, at));
  p.area_km2 = load_f64(arena, at + 8);
  p.mass = load_f64(arena, at + 16);
  p.peak_density = load_f64(arena, at + 24);
  p.peak_location = {load_f64(arena, at + 32), load_f64(arena, at + 40)};
  p.min_lat = load_f64(arena, at + 48);
  p.max_lat = load_f64(arena, at + 56);
  p.min_lon = load_f64(arena, at + 64);
  p.max_lon = load_f64(arena, at + 72);
  return p;
}

std::size_t ArtifactView::AsView::boundary_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].boundary_count);
}

kde::BoundarySegment ArtifactView::AsView::boundary(std::size_t i) const noexcept {
  const AsEntry& e = view_->entries_[index_];
  EYEBALL_DCHECK(i < e.boundary_count, "artifact boundary read out of bounds");
  const std::span<const std::byte> arena = view_->boundary_;
  const std::size_t at =
      static_cast<std::size_t>(e.boundary_offset + i) * kSegmentRecordSize;
  kde::BoundarySegment s;
  s.a = {load_f64(arena, at), load_f64(arena, at + 8)};
  s.b = {load_f64(arena, at + 16), load_f64(arena, at + 24)};
  return s;
}

std::size_t ArtifactView::AsView::peak_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].peak_count);
}

kde::Peak ArtifactView::AsView::peak(std::size_t i) const noexcept {
  const AsEntry& e = view_->entries_[index_];
  EYEBALL_DCHECK(i < e.peak_count, "artifact peak read out of bounds");
  const std::span<const std::byte> arena = view_->peaks_;
  const std::size_t at = static_cast<std::size_t>(e.peak_offset + i) * kPeakRecordSize;
  kde::Peak p;
  p.location = {load_f64(arena, at), load_f64(arena, at + 8)};
  p.density = load_f64(arena, at + 16);
  p.score = load_f64(arena, at + 24);
  p.row = load_u32(arena, at + 32);
  p.col = load_u32(arena, at + 36);
  return p;
}

std::size_t ArtifactView::AsView::pop_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].pop_count);
}

PopEntry ArtifactView::AsView::pop(std::size_t i) const noexcept {
  const AsEntry& e = view_->entries_[index_];
  EYEBALL_DCHECK(i < e.pop_count, "artifact PoP read out of bounds");
  const std::span<const std::byte> arena = view_->pops_;
  const std::size_t at = static_cast<std::size_t>(e.pop_offset + i) * kPopRecordSize;
  PopEntry pop;
  pop.city = load_u32(arena, at);
  pop.score = load_f64(arena, at + 8);
  pop.peak_density = load_f64(arena, at + 16);
  pop.peak_location = {load_f64(arena, at + 24), load_f64(arena, at + 32)};
  return pop;
}

std::size_t ArtifactView::AsView::unmapped_peaks() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].unmapped_peaks);
}

std::size_t ArtifactView::AsView::sample_count() const noexcept {
  return static_cast<std::size_t>(view_->entries_[index_].sample_count);
}

double ArtifactView::AsView::bandwidth_km() const noexcept {
  return view_->entries_[index_].bandwidth_km;
}

AsAnalysis ArtifactView::AsView::materialize() const {
  const AsEntry& e = view_->entries_[index_];

  Classification classification;
  classification.level = level();
  classification.dominant_region = std::string{dominant_region()};
  classification.dominant_share = e.dominant_share;
  classification.continent = continent();

  // The open-time walk pinned rows/cols to exactly what this constructor
  // derives, so passing the cell count as the budget reproduces the
  // original grid without triggering the coarsening loop.
  const std::size_t cells = grid_rows() * grid_cols();
  kde::DensityGrid grid{grid_box(), e.cell_km, cells == 0 ? 1 : cells};
  EYEBALL_DCHECK(grid.rows() == grid_rows() && grid.cols() == grid_cols(),
                 "artifact grid shape diverged from DensityGrid's derivation");
  {
    // Scatter the nonzero runs into the (zero-initialized) dense grid; the
    // open-time walk guaranteed the runs stay inside it and consume exactly
    // the nonzero arena range.
    const std::span<const double> values = grid_nonzero_values();
    const std::span<double> dense = grid.mutable_values();
    std::size_t cursor = 0;
    for (std::size_t r = 0; r < grid_run_count(); ++r) {
      const GridRun run = grid_run(r);
      std::copy(values.begin() + static_cast<std::ptrdiff_t>(cursor),
                values.begin() + static_cast<std::ptrdiff_t>(cursor + run.count),
                dense.begin() + static_cast<std::ptrdiff_t>(run.start_cell));
      cursor += static_cast<std::size_t>(run.count);
    }
  }

  kde::Footprint contour;
  contour.level = e.contour_level;
  contour.partitions.reserve(partition_count());
  for (std::size_t i = 0; i < partition_count(); ++i) {
    contour.partitions.push_back(partition(i));
  }
  contour.boundary.reserve(boundary_count());
  for (std::size_t i = 0; i < boundary_count(); ++i) {
    contour.boundary.push_back(boundary(i));
  }

  std::vector<kde::Peak> peaks;
  peaks.reserve(peak_count());
  for (std::size_t i = 0; i < peak_count(); ++i) peaks.push_back(peak(i));

  AsFootprint footprint{std::move(grid), std::move(contour), std::move(peaks),
                        sample_count(), e.bandwidth_km};

  PopFootprint pops;
  pops.pops.reserve(pop_count());
  for (std::size_t i = 0; i < pop_count(); ++i) pops.pops.push_back(pop(i));
  pops.unmapped_peaks = unmapped_peaks();

  return AsAnalysis{asn(), std::move(classification), std::move(footprint),
                    std::move(pops)};
}

}  // namespace eyeball::core
