// The serving artifact: a relocatable, memory-mappable image of one
// finalized epoch as serving reads it — dataset stats plus every per-AS
// analysis (classification, footprint grid, contour, peaks, PoP mapping).
//
// Why a second on-disk format next to EYBSNAP1: the two persist different
// things.  The snapshot holds *builder* state, the kept peers included
// (buckets, dedup keys, window trail, touched set) — what a writer's
// restore() needs to keep ingesting — and pays a full parse on restore.
// The artifact holds the *served* epoch in its final in-memory shape and
// nothing else (no peer records: replicas answer the paper's §3 footprint
// and PoP queries, which never read them), so opening is mmap + validate
// with no per-record parsing, and each AS is then materialized straight
// from the image (a replica's restore does that once per AS).
//
// Format EYBART1 v2 (all integers little-endian, doubles as IEEE-754 bit
// patterns, every section offset 8-byte aligned):
//
//   header   "EYBART1\0"  8 B   magic
//            u32               format version (currently 2)
//            u32               section count (currently 10)
//            u64               epoch the artifact was published at
//            u64               config fingerprint (result-affecting fields,
//                              same derivation as EYBSNAP1)
//            u64               total file size in bytes (truncation check)
//            u64               AS count
//            u32               meta CRC32C (header above + section table)
//            u32               reserved (zero)
//   table    section-count entries x 40 B:
//            u32               section id (1..10, strictly ascending)
//            u32               reserved (zero)
//            u64               file offset of the payload (8-aligned)
//            u64               payload size in bytes
//            u64               reserved (zero)
//            u32               payload CRC32C
//            u32               reserved (zero)
//   payload  sections back-to-back in table order, each zero-padded to the
//            next 8-byte boundary:
//             1 stats         10 u64 counters, u64 window count, 5 u64/window
//             2 AS index      224 B per AS (see AsEntry)
//             3 ASN order     u32 entry index per AS, stably sorted by ASN
//             4 grid runs     16 B per run
//             5 grid values   8 B per nonzero cell
//             6 partitions    80 B each       7 boundary   32 B per segment
//             8 peaks         40 B each       9 PoPs       40 B each
//            10 regions       dominant-region bytes
//   tail     "EYBAREND"  8 B   tail magic
//
// Images of another format version (v1 had 11 sections and 240 B index
// entries) are refused as kVersionMismatch: the meta CRC covers the
// header's own section count, so an intact image of any version passes it
// and reaches the version check instead of being taken for corruption.
//
// Relocation rule: the file contains no pointers and no file offsets
// outside the section table.  All variable-length data lives in contiguous
// per-kind arenas (grid runs, grid nonzero doubles, contour partitions,
// boundary segments, peaks, PoP entries, region strings), and the per-AS
// index records address them by ELEMENT offset + count within the arena.
// Every AS's ranges are consecutive in AS order and exactly tile each
// arena — checked at open, so overlapping or out-of-bounds ranges are typed
// corruption, never a wild read.
//
// Grid storage is zero-suppressed: KDE density grids are overwhelmingly
// exact-zero cells (~97% at bench scale), so each AS's row-major grid is
// stored as maximal runs of bit-nonzero cells (u64 start cell + u64 count
// per run, AS-local indices) plus a packed arena of just the nonzero
// doubles.  A cell is zero iff its IEEE-754 bit pattern is exactly zero,
// so -0.0 and denormals survive the round trip bit-exactly.  The open-time
// walk checks run canonicality (counts >= 1, strictly separated, inside
// the grid, value total matches, stored values bit-nonzero), which keeps
// materialize() a bounded scatter.
//
// Validation order at open (once; queries after that are unchecked reads):
//   1. envelope: minimum size, 8-aligned file size (what the encoder's
//      padding always produces; keeps payload_end aligned so the packing
//      arithmetic in step 3 cannot wrap), head magic, tail magic, recorded
//      file size
//   2. meta CRC over header + section table (any flipped header/table bit
//      lands here), then the version check — a bit-flipped version byte
//      fails the CRC as kCorruption, an intact image of another format
//      version passes it and reports kVersionMismatch — then the section
//      count and the header's reserved field
//   3. section-table walk: exact id order, reserved fields zero, exact
//      packing (each offset is the previous section's padded end), zero
//      padding between sections
//   4. per-section payload CRC (hardware-accelerated crc32c_fast)
//   5. structural walk: arena sizes vs record sizes, per-AS ranges tile the
//      arenas, ASN order index is a sorted permutation, enums in range,
//      grid geometry consistent (rows/cols re-derived from box + cell size
//      by DensityGrid::shape_for)
//
// Encode is canonical: a given (dataset, analyses, epoch, fingerprint)
// produces identical bytes regardless of thread counts or how the samples
// were windowed upstream — pinned by tests/artifact_test.cpp, so artifact
// bytes double as a state-identity check exactly like snapshot bytes do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball::core {

/// One maximal run of bit-nonzero grid cells, in AS-local row-major cell
/// indices.  The matching values live contiguously in the nonzero arena.
struct GridRun {
  std::uint64_t start_cell = 0;
  std::uint64_t count = 0;
};

/// Encoder for the EYBART1 format.  Stateless; reads only the public
/// surface of the finalized dataset and analyses (unlike SnapshotCodec it
/// needs no friendship — the artifact captures published output, not
/// builder internals).
class ArtifactCodec {
 public:
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Serializes one epoch into `out` (replaced).  `analyses` must be
  /// parallel to `dataset.ases()`; of the dataset, only its stats and each
  /// AS's ASN are written.  Canonical: equal inputs encode to identical
  /// bytes.
  [[nodiscard]] static util::Status encode(const TargetDataset& dataset,
                                           std::span<const AsAnalysis> analyses,
                                           std::uint64_t epoch,
                                           std::uint64_t config_fingerprint,
                                           std::vector<std::byte>& out);

  /// encode() + crash-safe publish via atomic_write_file: a crash leaves
  /// the previous artifact or the new one, never a hybrid.
  [[nodiscard]] static util::Status write(util::FileSystem& fs, const std::string& path,
                                          const TargetDataset& dataset,
                                          std::span<const AsAnalysis> analyses,
                                          std::uint64_t epoch,
                                          std::uint64_t config_fingerprint);
};

/// Zero-copy reader over a validated artifact.  open() maps the file and
/// runs the full validation walk once; every accessor after that reads the
/// mapped bytes in place.  The view owns the mapping; it lives exactly as
/// long as the view.
class ArtifactView {
 public:
  ArtifactView() = default;
  ArtifactView(ArtifactView&&) noexcept = default;
  ArtifactView& operator=(ArtifactView&&) noexcept = default;
  ArtifactView(const ArtifactView&) = delete;
  ArtifactView& operator=(const ArtifactView&) = delete;

  /// Maps `path` through `fs` (mmap on the real filesystem) and validates.
  /// On failure `out` is untouched and the mapping is released.
  [[nodiscard]] static util::Status open(const std::string& path, util::FileSystem& fs,
                                         ArtifactView& out);
  /// Same over the process-wide real filesystem.
  [[nodiscard]] static util::Status open(const std::string& path, ArtifactView& out);
  /// Validates an in-memory image the view takes ownership of.
  [[nodiscard]] static util::Status from_bytes(std::vector<std::byte> bytes,
                                               ArtifactView& out);
  /// Validates a borrowed image; the caller must keep `bytes` alive and
  /// unchanged for the view's lifetime.  Exists for the fault sweep, which
  /// opens thousands of mutated/truncated images without copying each one.
  [[nodiscard]] static util::Status from_borrowed(std::span<const std::byte> bytes,
                                                  ArtifactView& out);

  /// False for a default-constructed (never-opened) view.
  [[nodiscard]] bool valid() const noexcept { return opened_; }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept {
    return config_fingerprint_;
  }
  [[nodiscard]] std::size_t as_count() const noexcept { return entries_.size(); }
  /// Dataset-level stats, windows included (decoded eagerly at open — a
  /// few hundred bytes, not worth lazy plumbing).
  [[nodiscard]] const DatasetStats& stats() const noexcept { return stats_; }
  /// Size of the backing image in bytes.
  [[nodiscard]] std::size_t image_size() const noexcept { return bytes_.size(); }

  /// One AS's slice of the artifact: cheap value handle (index + pointer to
  /// the view), every accessor an in-place read of the mapped bytes.
  /// Accessor results equal the in-memory epoch's values exactly (pinned by
  /// the differential test).
  class AsView {
   public:
    [[nodiscard]] net::Asn asn() const noexcept;
    [[nodiscard]] topology::AsLevel level() const noexcept;
    [[nodiscard]] gazetteer::Continent continent() const noexcept;
    [[nodiscard]] double dominant_share() const noexcept;
    /// Points into the mapped string arena; valid while the view lives.
    [[nodiscard]] std::string_view dominant_region() const noexcept;

    [[nodiscard]] std::size_t grid_rows() const noexcept;
    [[nodiscard]] std::size_t grid_cols() const noexcept;
    [[nodiscard]] geo::BoundingBox grid_box() const;
    [[nodiscard]] double grid_cell_km() const noexcept;
    /// Zero-suppressed density values: the runs of bit-nonzero cells and
    /// their packed values, read in place from the mapped arenas (the
    /// open-time walk guaranteed alignment, bounds and run canonicality).
    /// Cells covered by no run are exactly 0.0.
    [[nodiscard]] std::size_t grid_run_count() const noexcept;
    [[nodiscard]] GridRun grid_run(std::size_t i) const noexcept;
    [[nodiscard]] std::size_t grid_nonzero_count() const noexcept;
    [[nodiscard]] std::span<const double> grid_nonzero_values() const noexcept;

    [[nodiscard]] double contour_level() const noexcept;
    [[nodiscard]] std::size_t partition_count() const noexcept;
    [[nodiscard]] kde::FootprintPartition partition(std::size_t i) const noexcept;
    [[nodiscard]] std::size_t boundary_count() const noexcept;
    [[nodiscard]] kde::BoundarySegment boundary(std::size_t i) const noexcept;

    [[nodiscard]] std::size_t peak_count() const noexcept;
    [[nodiscard]] kde::Peak peak(std::size_t i) const noexcept;

    [[nodiscard]] std::size_t pop_count() const noexcept;
    [[nodiscard]] PopEntry pop(std::size_t i) const noexcept;
    [[nodiscard]] std::size_t unmapped_peaks() const noexcept;

    [[nodiscard]] std::size_t sample_count() const noexcept;
    [[nodiscard]] double bandwidth_km() const noexcept;

    /// Copies this AS out of the artifact into the exact in-memory analysis
    /// the epoch was published with — what a replica's restore runs once
    /// per AS.
    [[nodiscard]] AsAnalysis materialize() const;

   private:
    friend class ArtifactView;
    AsView(const ArtifactView* view, std::size_t index) noexcept
        : view_(view), index_(index) {}

    const ArtifactView* view_;
    std::size_t index_;
  };

  /// The i-th AS in dataset order (parallel to the epoch's ases()).
  [[nodiscard]] AsView as_at(std::size_t index) const noexcept {
    return AsView{this, index};
  }
  /// TargetDataset::find semantics: O(log n) over the persisted ASN order,
  /// first entry on duplicates, nullopt when the ASN is not in the epoch.
  [[nodiscard]] std::optional<std::size_t> find_index(net::Asn asn) const noexcept;
  [[nodiscard]] std::optional<AsView> find(net::Asn asn) const noexcept;

 private:
  friend class AsView;

  /// Fixed-size per-AS index record, decoded once at open (224 B each on
  /// disk, in this field order, with a reserved u32 after `continent`;
  /// cheaper to hold decoded than to re-parse per query).
  struct AsEntry {
    std::uint32_t asn = 0;
    std::uint32_t level = 0;
    std::uint32_t continent = 0;
    double dominant_share = 0.0;
    std::uint64_t region_offset = 0, region_size = 0;
    std::uint64_t grid_run_offset = 0, grid_run_count = 0;
    std::uint64_t grid_value_offset = 0, grid_nonzero_count = 0;
    std::uint64_t grid_rows = 0, grid_cols = 0;
    double min_lat = 0.0, max_lat = 0.0, min_lon = 0.0, max_lon = 0.0;
    double cell_km = 0.0;
    double contour_level = 0.0;
    std::uint64_t partition_offset = 0, partition_count = 0;
    std::uint64_t boundary_offset = 0, boundary_count = 0;
    std::uint64_t peak_offset = 0, peak_count = 0;
    std::uint64_t pop_offset = 0, pop_count = 0;
    std::uint64_t unmapped_peaks = 0;
    std::uint64_t sample_count = 0;
    double bandwidth_km = 0.0;
  };

  [[nodiscard]] util::Status load(std::span<const std::byte> bytes);

  // Backing storage: exactly one of map_/owned_ holds the image for the
  // owning factories; from_borrowed leaves both empty.  bytes_ always spans
  // the live image.
  util::MappedFile map_;
  std::vector<std::byte> owned_;
  std::span<const std::byte> bytes_;

  bool opened_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t config_fingerprint_ = 0;
  DatasetStats stats_;
  std::vector<AsEntry> entries_;
  /// Indices into entries_, stably sorted by ASN (persisted, validated).
  std::span<const std::byte> asn_order_;
  // Arena payloads, in place in the image.
  std::span<const std::byte> grid_runs_;
  std::span<const double> grid_values_;
  std::span<const std::byte> partitions_;
  std::span<const std::byte> boundary_;
  std::span<const std::byte> peaks_;
  std::span<const std::byte> pops_;
  std::span<const std::byte> regions_;
};

}  // namespace eyeball::core
