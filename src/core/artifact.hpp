// The serving artifact: an image of one finalized epoch as serving reads it
// — dataset stats plus every per-AS analysis (classification, footprint
// grid, contour, peaks, PoP mapping) — that a replica decodes once.
//
// Why a second on-disk format next to EYBSNAP1: the two persist different
// things.  The snapshot holds the *builder's* input (the admitted sample
// stream and window trail) — what a writer's restore() replays to keep
// ingesting.  The artifact holds the *served* epoch
// and nothing else (no peer records: replicas answer the paper's §3
// footprint and PoP queries, which never read them).  A replica's restore
// opens it (envelope + stats), then materialize() walks the
// per-AS records once into the in-memory analyses the epoch serves from.
//
// Format EYBART1 v4 (all integers little-endian, doubles as IEEE-754 bit
// patterns), framed by the envelope it shares with EYBSNAP1
// (core/byte_io.hpp):
//
//   header   "EYBART1\0"  8 B   magic
//            u32               format version (currently 4)
//            u64               epoch the artifact was published at
//            u64               config fingerprint (result-affecting fields,
//                              same derivation as EYBSNAP1)
//   stats    10 u64 counters, u64 window count, 5 u64 per window; the 9th
//            counter, final_ases, is the AS count
//   records  one record per AS, in dataset order (strictly ASN-ascending),
//            back to back (layout below)
//   footer   u32               CRC32C of every byte above
//            "EYBAREND"  8 B   tail magic
//
// AS record (every "count" is an element count, immediately followed by
// that many elements):
//
//   u32 asn   u32 level   u32 continent   f64 dominant share
//   u64 region size, then the dominant-region bytes
//   u64 grid rows   u64 grid cols   f64 min_lat max_lat min_lon max_lon
//   f64 cell_km
//   u64 run count, then per run: u64 start cell, u64 cell count
//   u64 nonzero count, then the nonzero cell values (f64 each)
//   f64 contour level
//   u64 partition count, then per partition: u64 cell count, f64 area_km2,
//       mass, peak density, peak lat, peak lon, min_lat, max_lat, min_lon,
//       max_lon
//   u64 boundary count, then per segment: f64 a.lat a.lon b.lat b.lon
//   u64 peak count, then per peak: f64 lat, lon, density, score; u32 row,
//       u32 col
//   u64 PoP count, then per PoP: u32 city, f64 score, peak density,
//       peak lat, peak lon
//   u64 unmapped peaks   u64 sample count   f64 bandwidth_km
//
// Grid storage is zero-suppressed: KDE density grids are overwhelmingly
// exact-zero cells (~97% at bench scale), so each AS's row-major grid is
// stored as maximal runs of bit-nonzero cells (AS-local cell indices) plus
// just the nonzero doubles, in run order.  A cell is zero iff its IEEE-754
// bit pattern is exactly zero, so -0.0 and denormals survive the round trip
// bit-exactly.  A decoded grid stores, per row, the hull of that row's
// stored cells (a run crossing a row boundary counts toward both rows), so
// a replica allocates no more than the runs span.
//
// open() checks, in order:
//   1. the shared envelope: minimum size, head magic, tail magic, footer
//      CRC (hardware-accelerated crc32c_fast), then the version.  Any
//      flipped bit outside the tail magic fails the CRC as kCorruption, so
//      a damaged version byte never reads as skew; an intact image of
//      another version is kVersionMismatch.
//   2. the stats record (its window count bounded by the bytes left), and
//      its final_ases bounded by the record bytes over the smallest record.
// Images of v1-v3 carry no footer CRC: they sealed their header and section
// table (v1 had 11 sections, v2 10, v3 2) with a meta CRC at byte 48.  Only
// once the footer CRC has failed does open() check that meta CRC, and an
// image it verifies with a version of 1-3 is refused as kVersionMismatch —
// intact property of an older binary, never quarantined as corruption.
// materialize() then checks every record field as it decodes it: ASNs
// strictly ascending (ServingSnapshot::find binary-searches them), enums in
// range, the box, the grid shape re-derived by DensityGrid::shape_for, run
// canonicality (counts >= 1, strictly separated, inside the grid, covering
// exactly the nonzero values, each value bit-nonzero), peaks inside the
// grid, every count bounded by the bytes left, the record bytes consumed
// exactly.  Every byte of the image is covered by the footer CRC or the
// tail-magic compare, and every field that sizes an allocation or indexes a
// grid is checked before it is used.
//
// Encode is canonical: a given (dataset, analyses, epoch, fingerprint)
// produces identical bytes regardless of thread counts or how the samples
// were windowed upstream — pinned by tests/artifact_test.cpp, so artifact
// bytes double as a state-identity check exactly like snapshot bytes do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball::core {

/// Encoder for the EYBART1 format.  Stateless; reads only the public
/// surface of the finalized dataset and analyses (unlike SnapshotCodec it
/// needs no friendship — the artifact captures published output, not
/// builder internals).
class ArtifactCodec {
 public:
  static constexpr std::uint32_t kFormatVersion = 4;

  /// Serializes one epoch into `out` (replaced).  `analyses` must be
  /// parallel to `dataset.ases()` and the stats' final_ases must equal the
  /// AS count (kInvalidArgument otherwise); of the dataset, only its stats
  /// and each AS's ASN are written.  Sizes every record first, allocates
  /// the image once, then fills each record's slice; both per-AS passes
  /// fan out at `threads` (0 = one per pool worker).  Canonical: equal
  /// inputs encode to identical bytes at any `threads`.
  [[nodiscard]] static util::Status encode(const TargetDataset& dataset,
                                           std::span<const AsAnalysis> analyses,
                                           std::uint64_t epoch,
                                           std::uint64_t config_fingerprint,
                                           std::vector<std::byte>& out,
                                           std::size_t threads = 1);

  /// encode() + crash-safe publish via atomic_write_file: a crash leaves
  /// the previous artifact or the new one, never a hybrid.
  [[nodiscard]] static util::Status write(util::FileSystem& fs, const std::string& path,
                                          const TargetDataset& dataset,
                                          std::span<const AsAnalysis> analyses,
                                          std::uint64_t epoch,
                                          std::uint64_t config_fingerprint,
                                          std::size_t threads = 1);
};

/// Reader over one artifact image.  open() maps the file and checks the
/// envelope and the stats; materialize() decodes every AS record once.
/// The view owns the mapping; it lives exactly as long as the view.
class ArtifactView {
 public:
  ArtifactView() = default;
  ArtifactView(ArtifactView&&) noexcept = default;
  ArtifactView& operator=(ArtifactView&&) noexcept = default;
  ArtifactView(const ArtifactView&) = delete;
  ArtifactView& operator=(const ArtifactView&) = delete;

  /// Maps `path` through `fs` (mmap on the real filesystem) and checks it.
  /// On failure `out` is untouched and the mapping is released.
  [[nodiscard]] static util::Status open(const std::string& path, util::FileSystem& fs,
                                         ArtifactView& out);
  /// Checks a borrowed image; the caller must keep `bytes` alive and
  /// unchanged for the view's lifetime.  Exists for the fault sweep, which
  /// opens thousands of mutated/truncated images without copying each one.
  [[nodiscard]] static util::Status from_borrowed(std::span<const std::byte> bytes,
                                                  ArtifactView& out);

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept {
    return config_fingerprint_;
  }
  /// The stats' final_ases, bounded at open by the record bytes.
  [[nodiscard]] std::size_t as_count() const noexcept { return stats_.final_ases; }
  /// Dataset-level stats, windows included (decoded at open).
  [[nodiscard]] const DatasetStats& stats() const noexcept { return stats_; }

  /// Decodes every AS record, in dataset order, into the exact in-memory
  /// analyses the epoch was published with — what a replica's restore runs
  /// once.  Damaged records are kCorruption; a grid of more than
  /// `max_grid_cells` cells (rows x cols, stored or not) is
  /// kConfigMismatch, refused before anything is allocated for it.  On any
  /// failure `out` is untouched.
  [[nodiscard]] util::Status materialize(std::size_t max_grid_cells,
                                         std::vector<AsAnalysis>& out) const;

 private:
  [[nodiscard]] util::Status load(std::span<const std::byte> bytes);

  /// Backing storage for open(); empty for from_borrowed.
  util::MappedFile map_;
  /// The AS records, inside the backing image.
  std::span<const std::byte> records_;
  std::uint64_t epoch_ = 0;
  std::uint64_t config_fingerprint_ = 0;
  DatasetStats stats_;
};

}  // namespace eyeball::core
