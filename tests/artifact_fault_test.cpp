// Fault battery for the serving artifact (core/artifact.hpp), the
// acceptance bar stated as a number: ZERO silent corruptions.  An image
// counts as accepted only when it both opens and materializes; the
// silent-corruption outcome is a damaged image that does both.
//
// Three sweeps:
//   1. Write-path: ArtifactCodec::write under every FaultInjectingFileSystem
//      fault class at every offset class — a damaged image must be refused
//      typed (or the write itself must fail and leave the previous artifact
//      serving); never a successful decode of wrong bytes.
//   2. Image mutation: EVERY single-bit flip over the header + section
//      table + tail region, strided flips across every payload section, and
//      EVERY truncation length — each mutated image must be refused with
//      kCorruption.  The format makes this provable: every byte of the file
//      is covered by the meta CRC, a section CRC, a zero-padding rule, or
//      the tail-magic compare.
//   3. Hostile structure: section-table entries and AS-record fields
//      rewritten with RECOMPUTED CRCs (out-of-bounds, overlapping and
//      misaligned sections, out-of-range enums, nonzero reserved fields,
//      inconsistent grid geometry, non-canonical runs, counts of 2^60,
//      trailing record bytes) — past the checksums on purpose, so open's
//      table walk or materialize's field checks are what refuse them.
//
// Plus format skew: intact images of both earlier format versions are
// refused as kVersionMismatch, and a replica restoring from one leaves the
// file in place instead of quarantining it.
//
// Runs under ASan+UBSan in tools/check.sh's artifact-faults stage: a wild
// read on any of these paths is a sanitizer abort, not a flake.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "geo/point.hpp"
#include "kde/grid.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "scratch.hpp"
#include "serve/service.hpp"
#include "util/crc32c.hpp"
#include "util/file.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

using eyeball::testing::same_analysis;
using eyeball::testing::shared_fixture;
using util::FileFault;
using util::Status;
using util::StatusCode;

constexpr std::size_t kHeaderSize = 56;
constexpr std::size_t kTableEntrySize = 40;
constexpr std::size_t kSectionCount = 2;
constexpr std::size_t kMetaSize = kHeaderSize + kSectionCount * kTableEntrySize;
/// Table entries of the two sections.
constexpr std::size_t kStatsEntry = kHeaderSize;
constexpr std::size_t kRecordsEntry = kHeaderSize + kTableEntrySize;

/// A deliberately SMALL epoch: the exhaustive sweeps below scale with the
/// image size (every truncation length, every meta-region bit), so the
/// fixture takes one truncated window and a lowered AS threshold.
struct FaultWorld {
  const testing::PipelineFixture& f = shared_fixture();
  core::PipelineConfig config = [] {
    core::PipelineConfig pipeline_config = shared_fixture().pipeline.config();
    pipeline_config.dataset.min_peers_per_as = 20;
    pipeline_config.threads = 1;
    return pipeline_config;
  }();
  core::EyeballPipeline pipeline{f.gaz, f.primary, f.secondary, f.mapper, config};
  p2p::LongitudinalResult churn = [this] {
    p2p::CrawlerConfig crawl_config;
    crawl_config.seed = 77;
    crawl_config.coverage = 0.05;
    p2p::ChurnConfig churn_config;
    churn_config.seed = 2009;
    churn_config.windows = 2;
    churn_config.lease_survival = 0.6;
    return p2p::longitudinal_crawl(f.eco, f.gaz, crawl_config, churn_config);
  }();
  std::span<const p2p::PeerSample> window_a =
      std::span<const p2p::PeerSample>{churn.windows[0]}.first(
          std::min<std::size_t>(churn.windows[0].size(), 400));
  std::span<const p2p::PeerSample> window_b =
      std::span<const p2p::PeerSample>{churn.windows[1]}.first(
          std::min<std::size_t>(churn.windows[1].size(), 400));
  std::uint64_t fingerprint = core::SnapshotCodec::config_fingerprint(config.dataset);
  core::TargetDataset dataset = [this] {
    auto builder = pipeline.streaming_builder();
    builder.ingest(window_a);
    return builder.finalize(1);
  }();
  std::vector<core::AsAnalysis> analyses = pipeline.refresh_analyses(dataset, {}, {});
  /// The intact reference image every mutation sweep starts from.
  std::vector<std::byte> image = [this] {
    std::vector<std::byte> bytes;
    const Status status =
        core::ArtifactCodec::encode(dataset, analyses, 1, fingerprint, bytes);
    EXPECT_TRUE(status.ok()) << status.message();
    return bytes;
  }();
  /// The KDE cell budget a replica of this pipeline materializes under.
  std::size_t max_cells = config.footprint.kde.max_cells;
};

const FaultWorld& fault_world() {
  static const FaultWorld instance;
  return instance;
}

// ---- byte-patch helpers (little-endian, mirror of the codec) -------------

[[nodiscard]] std::uint64_t read_u64(std::span<const std::byte> bytes,
                                     std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

void write_u32(std::span<std::byte> bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xffU);
  }
}

void write_u64(std::span<std::byte> bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((v >> (8 * i)) & 0xffU);
  }
}

/// Recomputes the meta CRC after a deliberate header/table rewrite, so the
/// mutation reaches the structural checks instead of dying at the checksum.
void fix_meta_crc(std::span<std::byte> image) {
  std::vector<std::byte> meta(image.begin(),
                              image.begin() + static_cast<std::ptrdiff_t>(kMetaSize));
  write_u32(meta, 48, 0);
  write_u32(image, 48, util::crc32c(meta));
}

/// Recomputes section `index`'s payload CRC from the (possibly mutated)
/// payload bytes, then re-fixes the meta CRC the rewrite invalidated.
void fix_section_crc(std::span<std::byte> image, std::size_t index) {
  const std::size_t entry = kHeaderSize + index * kTableEntrySize;
  const auto offset = static_cast<std::size_t>(read_u64(image, entry + 8));
  const auto stored = static_cast<std::size_t>(read_u64(image, entry + 16));
  write_u32(image, entry + 32, util::crc32c(image.subspan(offset, stored)));
  fix_meta_crc(image);
}

/// What a replica of the fault world does with an image: open it, then
/// decode every record under the pipeline's cell budget.
[[nodiscard]] Status open_and_materialize(const core::ArtifactView& view, Status opened) {
  if (!opened.ok()) return opened;
  std::vector<core::AsAnalysis> analyses;
  return view.materialize(fault_world().max_cells, analyses);
}

/// Scores a mutated image: 0 when it was refused (at open or at
/// materialize) with one of `allowed`, 1 (plus a test failure) when it was
/// accepted or refused with an unexpected code — the silent-corruption
/// tally.
[[nodiscard]] std::size_t expect_refused(std::span<const std::byte> image,
                                         std::initializer_list<StatusCode> allowed,
                                         const std::string& label) {
  core::ArtifactView view;
  const Status status =
      open_and_materialize(view, core::ArtifactView::from_borrowed(image, view));
  if (status.ok()) {
    ADD_FAILURE() << label << ": mutated image decoded cleanly — silent corruption";
    return 1;
  }
  for (const StatusCode code : allowed) {
    if (status.code() == code) return 0;
  }
  ADD_FAILURE() << label << ": unexpected refusal " << status;
  return 1;
}

/// File offsets of the fields of AS record 0 (layout in artifact.hpp),
/// found by walking the intact record's counts.
struct Record0 {
  std::size_t asn = 0, level = 0, continent = 0, region_size = 0;
  std::size_t rows = 0, cols = 0, min_lat = 0, cell_km = 0;
  std::size_t run_count = 0, runs = 0, nonzero_count = 0, values = 0;
  std::size_t partition_count = 0, boundary_count = 0, peak_count = 0, peaks = 0;
  std::size_t pop_count = 0;
};

[[nodiscard]] Record0 record0(std::span<const std::byte> image) {
  Record0 r;
  std::size_t at = static_cast<std::size_t>(read_u64(image, kRecordsEntry + 8));
  r.asn = at;
  r.level = at + 4;
  r.continent = at + 8;
  r.region_size = at + 20;
  at = r.region_size + 8 + static_cast<std::size_t>(read_u64(image, r.region_size));
  r.rows = at;
  r.cols = at + 8;
  r.min_lat = at + 16;
  r.cell_km = at + 48;
  r.run_count = at + 56;
  r.runs = r.run_count + 8;
  r.nonzero_count = r.runs + 16 * static_cast<std::size_t>(read_u64(image, r.run_count));
  r.values = r.nonzero_count + 8;
  r.partition_count =
      r.values + 8 * static_cast<std::size_t>(read_u64(image, r.nonzero_count)) + 8;
  r.boundary_count =
      r.partition_count + 8 +
      80 * static_cast<std::size_t>(read_u64(image, r.partition_count));
  r.peak_count = r.boundary_count + 8 +
                 32 * static_cast<std::size_t>(read_u64(image, r.boundary_count));
  r.peaks = r.peak_count + 8;
  r.pop_count = r.peaks + 40 * static_cast<std::size_t>(read_u64(image, r.peak_count));
  return r;
}

// ---- Sweep 2: exhaustive bit flips and truncations -----------------------

TEST(ArtifactFaults, EveryMetaRegionBitFlipIsTypedCorruption) {
  const auto& w = fault_world();
  ASSERT_GT(w.dataset.ases().size(), 0u)
      << "fixture produced no ASes — sweeps below would be vacuous";
  ASSERT_GT(w.image.size(), kMetaSize + 8);

  std::size_t silent = 0;
  std::vector<std::byte> mutated;
  // Every bit of the header + section table, plus every bit of the final
  // 16 bytes (closing padding + tail magic).  Everything in this region is
  // covered by the meta CRC, the envelope checks or the tail compare, so
  // every flip must refuse as kCorruption.
  std::vector<std::size_t> positions;
  for (std::size_t at = 0; at < kMetaSize; ++at) positions.push_back(at);
  for (std::size_t at = w.image.size() - 16; at < w.image.size(); ++at) {
    positions.push_back(at);
  }
  for (const std::size_t at : positions) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated = w.image;
      mutated[at] ^= static_cast<std::byte>(1U << bit);
      silent += expect_refused(mutated, {StatusCode::kCorruption},
                               "flip byte " + std::to_string(at) + " bit " +
                                   std::to_string(bit));
    }
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, StridedPayloadBitFlipsAreTypedCorruption) {
  const auto& w = fault_world();
  std::size_t silent = 0;
  std::vector<std::byte> mutated;
  // Payload region: every section's stored bytes (and inter-section
  // padding) are CRC-covered, so a flip anywhere must refuse.  Strided to
  // keep the suite's runtime bounded; the stride is coprime-ish with the
  // record sizes so hits land on every field family over the sweep.
  const std::size_t begin = kMetaSize;
  const std::size_t end = w.image.size() - 16;
  const std::size_t stride = std::max<std::size_t>(1, (end - begin) / 1024);
  for (std::size_t at = begin; at < end; at += stride) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated = w.image;
      mutated[at] ^= static_cast<std::byte>(1U << bit);
      silent += expect_refused(mutated, {StatusCode::kCorruption},
                               "payload flip byte " + std::to_string(at) + " bit " +
                                   std::to_string(bit));
    }
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, EveryTruncationLengthIsTypedCorruption) {
  const auto& w = fault_world();
  std::size_t silent = 0;
  const std::span<const std::byte> image{w.image};
  // Every proper prefix, including the empty file.  from_borrowed makes
  // this O(n) opens with zero copies.
  for (std::size_t length = 0; length < image.size(); ++length) {
    silent += expect_refused(image.first(length), {StatusCode::kCorruption},
                             "truncate to " + std::to_string(length));
  }
  EXPECT_EQ(silent, 0u);
  // And the intact image still decodes (the sweep above would be vacuous
  // against an image that never decoded at all).
  core::ArtifactView view;
  const Status status =
      open_and_materialize(view, core::ArtifactView::from_borrowed(image, view));
  EXPECT_TRUE(status.ok()) << status.message();
}

// ---- Sweep 3: hostile structure behind valid checksums -------------------

TEST(ArtifactFaults, HostileSectionTablesAreRefusedByTheTableWalk) {
  const auto& w = fault_world();
  std::size_t silent = 0;
  std::vector<std::byte> mutated;

  const auto fresh = [&] { mutated = w.image; return std::span<std::byte>{mutated}; };

  {  // out-of-line offset (gap): breaks the exact-packing rule
    auto m = fresh();
    write_u64(m, kRecordsEntry + 8, read_u64(m, kRecordsEntry + 8) + 8);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "offset +8");
  }
  {  // overlapping offset: points back into the previous section
    auto m = fresh();
    write_u64(m, kRecordsEntry + 8, read_u64(m, kRecordsEntry + 8) - 8);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "offset -8");
  }
  {  // misaligned offset
    auto m = fresh();
    write_u64(m, kRecordsEntry + 8, read_u64(m, kRecordsEntry + 8) + 4);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "offset +4");
  }
  {  // last section claims bytes past the end of the image
    auto m = fresh();
    write_u64(m, kRecordsEntry + 16, w.image.size());
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "size past end");
  }
  {  // a grown stored_size shifts the later section off the packing rule
    auto m = fresh();
    write_u64(m, kStatsEntry + 16, read_u64(m, kStatsEntry + 16) + 8);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "stored_size +8");
  }
  {  // section ids out of order
    auto m = fresh();
    write_u32(m, kRecordsEntry, 3);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "id disorder");
  }
  {  // future format version, CRC-valid: the one typed NON-corruption header
     // refusal
    auto m = fresh();
    write_u32(m, 8, core::ArtifactCodec::kFormatVersion + 1);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kVersionMismatch}, "version +1");
  }
  {  // AS count inflated: one record more than the section holds
    auto m = fresh();
    write_u64(m, 40, read_u64(m, 40) + 1);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "as_count +1");
  }
  {  // AS count far past what the record section could hold
    auto m = fresh();
    write_u64(m, 40, std::uint64_t{1} << 60);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "as_count huge");
  }
  {  // recorded file size wrong (caught by the envelope before the CRC)
    auto m = fresh();
    write_u64(m, 32, read_u64(m, 32) + 8);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "file_size +8");
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, UnalignedImageSizesAreRefusedAtTheEnvelope) {
  // The encoder pads every section to 8 bytes, so a well-formed image's
  // size is always a multiple of 8 and open refuses anything
  // else outright.  Grow the image by 1..7 zero bytes ahead of the tail
  // magic, with the recorded size and meta CRC made consistent, so the
  // alignment rule itself is the only thing left to refuse on.
  const auto& w = fault_world();
  std::size_t silent = 0;
  for (std::size_t extra = 1; extra < 8; ++extra) {
    std::vector<std::byte> mutated(w.image.begin(), w.image.end() - 8);
    mutated.insert(mutated.end(), extra, std::byte{0});
    mutated.insert(mutated.end(), w.image.end() - 8, w.image.end());
    const std::span<std::byte> m{mutated};
    write_u64(m, 32, mutated.size());
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption},
                             "grow by " + std::to_string(extra));
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, UnalignedPayloadEndCannotWrapTheSectionBoundsCheck) {
  // Regression for a u64 underflow in the section-table walk: shorten a
  // section by 4 bytes in both the table and the image and end the file
  // right there, so payload_end lands BETWEEN the new cursor and the
  // align8'd offset the table still records for the next section.  The
  // bounds check used to compute `payload_end - offset` in that geometry,
  // wrapping to a huge value and waving an arbitrary stored_size through
  // to an out-of-bounds CRC read.  Must refuse typed (and this whole
  // suite runs under ASan, so a surviving wild read is an abort).
  const auto& w = fault_world();
  const auto off = static_cast<std::size_t>(read_u64(w.image, kStatsEntry + 8));
  const auto size = static_cast<std::size_t>(read_u64(w.image, kStatsEntry + 16));
  ASSERT_GE(size, 8u) << "fixture stats section too small to shorten";

  std::vector<std::byte> mutated(
      w.image.begin(), w.image.begin() + static_cast<std::ptrdiff_t>(off + size - 4));
  mutated.insert(mutated.end(), w.image.end() - 8, w.image.end());  // tail magic
  const std::span<std::byte> m{mutated};
  write_u64(m, kStatsEntry + 16, size - 4);
  write_u64(m, 32, mutated.size());
  fix_section_crc(m, 0);
  EXPECT_EQ(expect_refused(mutated, {StatusCode::kCorruption}, "unaligned payload_end"),
            0u);
}

TEST(ArtifactFaults, StatsFinalAsesDisagreeingWithTheAsCountIsRefusedAtOpen) {
  // stats.final_ases + 1 behind a re-sealed stats CRC: every record still
  // decodes, so only the count check stands between this image and an
  // epoch whose stats() claim one AS more than it serves.
  const auto& w = fault_world();
  const auto stats_at = static_cast<std::size_t>(read_u64(w.image, kStatsEntry + 8));
  const std::size_t final_ases_at = stats_at + 8 * 8;  // the ninth counter
  ASSERT_EQ(read_u64(w.image, final_ases_at), w.dataset.ases().size());
  std::vector<std::byte> mutated = w.image;
  const std::span<std::byte> m{mutated};
  write_u64(m, final_ases_at, w.dataset.ases().size() + 1);
  fix_section_crc(m, 0);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_borrowed(mutated, view);
  EXPECT_EQ(opened.code(), StatusCode::kCorruption) << opened;
}

TEST(ArtifactFaults, NonzeroReservedFieldsAreTypedCorruption) {
  // The header's reserved u32 and each table entry's three reserved fields
  // (v1's encoding tag and raw size among them) must be zero.  Set behind a
  // recomputed meta CRC, so the reserved-field rule itself refuses them.
  const auto& w = fault_world();
  std::size_t silent = 0;
  {
    std::vector<std::byte> mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u32(m, 52, 1);
    fix_meta_crc(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "header reserved");
  }
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const std::size_t entry = kHeaderSize + s * kTableEntrySize;
    const std::string label = "section " + std::to_string(s + 1);
    {  // v1's encoding slot: 1 was zstd
      std::vector<std::byte> mutated = w.image;
      const std::span<std::byte> m{mutated};
      write_u32(m, entry + 4, 1);
      fix_meta_crc(m);
      silent += expect_refused(mutated, {StatusCode::kCorruption}, label + " u32@4");
    }
    {  // v1's raw-size slot, holding what v1 wrote there for a raw section
      std::vector<std::byte> mutated = w.image;
      const std::span<std::byte> m{mutated};
      write_u64(m, entry + 24, read_u64(w.image, entry + 16) + 1);
      fix_meta_crc(m);
      silent += expect_refused(mutated, {StatusCode::kCorruption}, label + " u64@24");
    }
    {
      std::vector<std::byte> mutated = w.image;
      const std::span<std::byte> m{mutated};
      write_u32(m, entry + 36, 1);
      fix_meta_crc(m);
      silent += expect_refused(mutated, {StatusCode::kCorruption}, label + " u32@36");
    }
  }
  EXPECT_EQ(silent, 0u);
}

/// An intact EYBART1 image of an empty epoch in an earlier format version,
/// laid out field by field: v1 had eleven table entries (the fourth being
/// its peer arena) with the raw size repeated at entry byte 24, v2 had ten
/// with that slot zero.  Either way an all-zero 88-byte stats record and
/// every other section empty.  Byte-equal to what that version's encoder
/// wrote for an empty dataset at this epoch and fingerprint.
[[nodiscard]] std::vector<std::byte> empty_previous_image(std::uint32_t version,
                                                          std::uint64_t epoch,
                                                          std::uint64_t fingerprint) {
  const std::size_t sections = version == 1 ? 11 : 10;
  constexpr std::size_t kStatsSize = 88;
  const std::size_t payload_begin = kHeaderSize + sections * kTableEntrySize;
  const std::size_t file_size = payload_begin + kStatsSize + 8;
  std::vector<std::byte> image(file_size, std::byte{0});
  const std::span<std::byte> m{image};
  const char magic[] = "EYBART1";  // with its NUL: the 8-byte head magic
  for (std::size_t i = 0; i < 8; ++i) image[i] = static_cast<std::byte>(magic[i]);
  write_u32(m, 8, version);
  write_u32(m, 12, static_cast<std::uint32_t>(sections));
  write_u64(m, 16, epoch);
  write_u64(m, 24, fingerprint);
  write_u64(m, 32, file_size);
  write_u64(m, 40, 0);
  const std::uint32_t stats_crc = util::crc32c(m.subspan(payload_begin, kStatsSize));
  for (std::size_t s = 0; s < sections; ++s) {
    const std::size_t entry = kHeaderSize + s * kTableEntrySize;
    const std::size_t size = s == 0 ? kStatsSize : 0;
    write_u32(m, entry, static_cast<std::uint32_t>(s + 1));
    write_u64(m, entry + 8, s == 0 ? payload_begin : payload_begin + kStatsSize);
    write_u64(m, entry + 16, size);
    if (version == 1) write_u64(m, entry + 24, size);
    write_u32(m, entry + 32, s == 0 ? stats_crc : 0);  // CRC32C of nothing is 0
  }
  std::vector<std::byte> meta(image.begin(),
                              image.begin() + static_cast<std::ptrdiff_t>(payload_begin));
  write_u32(m, 48, util::crc32c(meta));
  const char tail[] = "EYBAREND";
  for (std::size_t i = 0; i < 8; ++i) {
    image[file_size - 8 + i] = static_cast<std::byte>(tail[i]);
  }
  return image;
}

TEST(ArtifactFaults, PreviousFormatVersionsAreSkewNotCorruption) {
  // v1's and v2's tables are longer than v3's, but the meta CRC covers the
  // header's own section count, so an intact older image passes it and is
  // refused at the version check — never mistaken for a damaged v3 image.
  const auto& w = fault_world();
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("format v" + std::to_string(version));
    const std::vector<std::byte> image = empty_previous_image(version, 1, w.fingerprint);
    core::ArtifactView view;
    const Status opened = core::ArtifactView::from_borrowed(image, view);
    EXPECT_EQ(opened.code(), StatusCode::kVersionMismatch) << opened;

    // A replica restoring from it reports the skew and leaves the file
    // where it is: quarantine is for damaged files, and this one is intact
    // property of an older binary.
    const std::string path =
        testing::scratch_path("artifact_fault_v" + std::to_string(version));
    std::filesystem::remove(path + std::string{util::kQuarantineSuffix});
    auto& fs = util::local_filesystem();
    ASSERT_TRUE(util::atomic_write_file(fs, path, image).ok());
    serve::EyeballService replica{w.pipeline};
    const Status restored = replica.restore_from_artifact(path);
    EXPECT_EQ(restored.code(), StatusCode::kVersionMismatch) << restored;
    EXPECT_EQ(replica.snapshot(), nullptr);
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + std::string{util::kQuarantineSuffix}));
    std::filesystem::remove(path);
  }
}

TEST(ArtifactFaults, HostileRecordFieldsAreRefusedByMaterialize) {
  const auto& w = fault_world();
  ASSERT_GT(w.dataset.ases().size(), 0u);
  const Record0 r = record0(w.image);
  std::size_t silent = 0;
  std::vector<std::byte> mutated;

  // Each case rewrites one field of AS record 0 behind a recomputed CRC, so
  // the image opens and only materialize's field checks stand between it
  // and a wrong answer, a huge allocation or a wild write.
  const auto hostile_u64 = [&](std::size_t at, std::uint64_t value, const char* label) {
    mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u64(m, at, value);
    fix_section_crc(m, 1);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, label);
  };
  const auto hostile_u32 = [&](std::size_t at, std::uint32_t value, const char* label) {
    mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u32(m, at, value);
    fix_section_crc(m, 1);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, label);
  };
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;

  // ServingSnapshot::find binary-searches the decoded analyses, so a
  // repeated or descending ASN would make lookups miss served ASes.
  ASSERT_GE(w.analyses.size(), 2u);
  hostile_u32(r.asn, net::value_of(w.analyses[1].asn), "ASN equal to record 1's");
  hostile_u32(r.asn, UINT32_MAX, "ASN above record 1's");
  hostile_u32(r.level, 9, "level 9");
  hostile_u32(r.continent, 9, "continent 9");
  hostile_u64(r.region_size, kHuge, "region size huge");
  hostile_u64(r.rows, read_u64(w.image, r.rows) + 1, "grid_rows +1");
  hostile_u64(r.cols, kHuge, "grid_cols huge");
  hostile_u64(r.min_lat, 0x7ff8000000000000ULL, "NaN min_lat");
  // Doubling a positive double = +1 on the exponent field: rows/cols no
  // longer match the derivation.
  hostile_u64(r.cell_km, read_u64(w.image, r.cell_km) + (std::uint64_t{1} << 52),
              "cell_km x2");
  hostile_u64(r.run_count, kHuge, "grid_run_count huge");
  hostile_u64(r.nonzero_count, read_u64(w.image, r.nonzero_count) + 1,
              "grid_nonzero_count +1");
  hostile_u64(r.nonzero_count, kHuge, "grid_nonzero_count huge");
  hostile_u64(r.partition_count, read_u64(w.image, r.partition_count) + 1,
              "partition_count +1");
  hostile_u64(r.partition_count, kHuge, "partition_count huge");
  hostile_u64(r.boundary_count, kHuge, "boundary_count huge");
  hostile_u64(r.peak_count, kHuge, "peak_count huge");
  hostile_u64(r.pop_count, kHuge, "pop_count huge");
  if (read_u64(w.image, r.peak_count) >= 1) {
    // Peak 0's row (u32 at peak byte 32) one past the last grid row.
    hostile_u32(r.peaks + 32, static_cast<std::uint32_t>(read_u64(w.image, r.rows)),
                "peak row outside the grid");
  }
  {  // Eight bytes after the last record: the section must be consumed
     // exactly.  The record section is the last one, so growing it by 8
     // keeps the packing; the table, file size and CRCs are made consistent.
    const auto off = static_cast<std::size_t>(read_u64(w.image, kRecordsEntry + 8));
    const auto size = static_cast<std::size_t>(read_u64(w.image, kRecordsEntry + 16));
    mutated = w.image;
    mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(off + size), 8,
                   std::byte{0});
    const std::span<std::byte> m{mutated};
    write_u64(m, kRecordsEntry + 16, size + 8);
    write_u64(m, 32, mutated.size());
    fix_section_crc(m, 1);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "trailing record bytes");
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, HostileCellRunsAreRefusedByMaterialize) {
  const auto& w = fault_world();
  ASSERT_GT(w.dataset.ases().size(), 0u);
  const Record0 r = record0(w.image);
  std::size_t silent = 0;
  std::vector<std::byte> mutated;
  // AS 0's grid geometry (a real AS has nonzero density, so >= 1 run).
  const std::uint64_t run_count = read_u64(w.image, r.run_count);
  const std::uint64_t cells = read_u64(w.image, r.rows) * read_u64(w.image, r.cols);
  ASSERT_GE(run_count, 1u);

  const auto hostile_run = [&](std::size_t field_at, std::uint64_t value,
                               const char* label) {
    mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u64(m, r.runs + field_at, value);
    fix_section_crc(m, 1);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, label);
  };

  // Run 0 of AS 0 rewritten behind a recomputed CRC: only the run
  // canonicality checks stand between these and a wild scatter.
  hostile_run(8, 0, "run count 0");
  hostile_run(8, std::uint64_t{1} << 60, "run count huge");
  hostile_run(0, cells, "run start at cell count");
  hostile_run(0, ~std::uint64_t{0}, "run start huge");
  if (run_count >= 2) {
    // Second run starting at (or before) the first run's end: overlapping /
    // non-maximal runs are refused even when counts still add up.
    hostile_run(16, read_u64(w.image, r.runs), "run overlap");
  }
  {  // A bit-zero double smuggled in as a nonzero cell value.
    mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u64(m, r.values, 0);
    fix_section_crc(m, 1);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "bit-zero value");
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, GridAboveTheCellBudgetIsRefusedByMaterialize) {
  // Shrink AS 0's cell size and re-derive its rows/cols: the image is
  // structurally valid (the runs and peaks still sit inside the larger
  // grid, every CRC is recomputed), so open accepts it.  But no grid this
  // pipeline's estimator builds exceeds its KDE cell budget, and decoding
  // this one would allocate rows x cols doubles — materialize must refuse
  // it before allocating.
  const auto& w = fault_world();
  ASSERT_GT(w.dataset.ases().size(), 0u);
  const Record0 r = record0(w.image);
  const auto f64_at = [&](std::size_t at) {
    return std::bit_cast<double>(read_u64(w.image, at));
  };
  const geo::BoundingBox box{f64_at(r.min_lat), f64_at(r.min_lat + 8),
                             f64_at(r.min_lat + 16), f64_at(r.min_lat + 24)};
  double cell_km = f64_at(r.cell_km);
  kde::DensityGrid::Shape shape = kde::DensityGrid::shape_for(box, cell_km);
  for (int halvings = 0; shape.rows * shape.cols <= static_cast<double>(w.max_cells);
       ++halvings) {
    ASSERT_LT(halvings, 64) << "AS 0's box is too small to outgrow the budget";
    cell_km /= 2.0;
    shape = kde::DensityGrid::shape_for(box, cell_km);
  }
  std::vector<std::byte> mutated = w.image;
  const std::span<std::byte> m{mutated};
  write_u64(m, r.rows, static_cast<std::uint64_t>(shape.rows));
  write_u64(m, r.cols, static_cast<std::uint64_t>(shape.cols));
  write_u64(m, r.cell_km, std::bit_cast<std::uint64_t>(cell_km));
  fix_section_crc(m, 1);

  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_borrowed(mutated, view);
  ASSERT_TRUE(opened.ok()) << opened;
  std::vector<core::AsAnalysis> out;
  const Status decoded = view.materialize(w.max_cells, out);
  EXPECT_EQ(decoded.code(), StatusCode::kConfigMismatch) << decoded;
  EXPECT_TRUE(out.empty());

  const std::string path = testing::scratch_path("artifact_fault_oversized_grid");
  std::filesystem::remove(path + std::string{util::kQuarantineSuffix});
  ASSERT_TRUE(util::atomic_write_file(util::local_filesystem(), path, mutated).ok());
  serve::EyeballService replica{w.pipeline};
  const Status restored = replica.restore_from_artifact(path);
  EXPECT_EQ(restored.code(), StatusCode::kConfigMismatch) << restored;
  EXPECT_EQ(replica.snapshot(), nullptr);
  // Intact, just not this pipeline's output: left in place, not quarantined.
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + std::string{util::kQuarantineSuffix}));
  std::filesystem::remove(path);
}

TEST(ArtifactFaults, MisalignedBorrowedImageDecodesIdentically) {
  const auto& w = fault_world();
  // Every field is decoded byte by byte, so an image at base+1 (always
  // misaligned: a vector's base is at least 8-aligned) decodes to exactly
  // the epoch it was written from; the UBSan tree would abort on any
  // misaligned load.
  std::vector<std::byte> shifted(w.image.size() + 1);
  std::copy(w.image.begin(), w.image.end(), shifted.begin() + 1);
  core::ArtifactView view;
  const Status opened = core::ArtifactView::from_borrowed(
      std::span<const std::byte>{shifted}.subspan(1), view);
  ASSERT_TRUE(opened.ok()) << opened;
  std::vector<core::AsAnalysis> decoded;
  const Status status = view.materialize(w.max_cells, decoded);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(decoded.size(), w.analyses.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(same_analysis(decoded[i], w.analyses[i])) << "as index " << i;
  }
}

// ---- Sweep 1: write-path faults through the checked-I/O seam -------------

/// One write-under-fault scenario.  Returns the silent-corruption count.
[[nodiscard]] std::size_t run_write_scenario(const FaultWorld& w,
                                             const FileFault& fault, bool fail_rename,
                                             const std::string& name) {
  const std::string path = testing::scratch_path("artifact_fault_" + name);
  auto& clean_fs = util::local_filesystem();
  const std::string label =
      std::string{util::to_string(fault.kind)} + " offset=" +
      std::to_string(fault.offset) + (fail_rename ? " rename" : "");

  // Epoch 1 published cleanly; epoch 2's write hits the fault.
  Status status = core::ArtifactCodec::write(clean_fs, path, w.dataset, w.analyses,
                                             1, w.fingerprint);
  EXPECT_TRUE(status.ok()) << label << ": " << status;
  util::FaultInjectingFileSystem faulty_fs{clean_fs};
  if (fail_rename) {
    faulty_fs.fail_next_rename();
  } else {
    faulty_fs.arm(fault);
  }
  const Status save = core::ArtifactCodec::write(faulty_fs, path, w.dataset,
                                                 w.analyses, 2, w.fingerprint);

  core::ArtifactView view;
  const Status open =
      open_and_materialize(view, core::ArtifactView::open(path, clean_fs, view));

  if (!save.ok()) {
    // Reported failure: the atomic-write protocol must have left epoch 1.
    if (!open.ok() || view.epoch() != 1) {
      ADD_FAILURE() << label << ": failed write damaged the published artifact ("
                    << open << ")";
      return 1;
    }
    return 0;
  }
  if (!faulty_fs.fault_fired()) {
    // Fault never triggered (offset beyond the file): a genuinely clean
    // publish of epoch 2.
    if (!open.ok() || view.epoch() != 2) {
      ADD_FAILURE() << label << ": clean write did not round-trip (" << open << ")";
      return 1;
    }
    return 0;
  }
  // Silent fault, "successful" write: the published image is damaged and
  // must be refused typed.  A clean decode here is the silent-corruption
  // outcome this suite exists to rule out.
  if (open.ok()) {
    ADD_FAILURE() << label << ": silently damaged artifact decoded cleanly";
    return 1;
  }
  if (open.code() != StatusCode::kCorruption) {
    ADD_FAILURE() << label << ": unexpected refusal " << open;
    return 1;
  }
  return 0;
}

TEST(ArtifactFaults, EveryWriteFaultClassAtEveryOffsetClassIsSafe) {
  const auto& w = fault_world();
  const std::size_t file_size = w.image.size();
  ASSERT_GT(file_size, kMetaSize);

  const std::vector<std::uint64_t> offsets = {
      0,                    // head magic
      9,                    // format version
      49,                   // meta CRC
      kHeaderSize + 8,      // first table entry's offset field
      kMetaSize + 1,        // first payload byte
      file_size / 2,        // payload interior
      file_size - 4,        // tail magic
      std::uint64_t{1} << 40,  // beyond the file: fault must not fire
  };
  const FileFault::Kind kinds[] = {
      FileFault::Kind::kShortWrite,
      FileFault::Kind::kFailedSync,
      FileFault::Kind::kBitFlip,
      FileFault::Kind::kTruncate,
  };

  std::size_t silent = 0;
  std::size_t scenario = 0;
  for (const FileFault::Kind kind : kinds) {
    for (const std::uint64_t offset : offsets) {
      FileFault fault;
      fault.kind = kind;
      fault.offset = offset;
      fault.bit = static_cast<std::uint32_t>(offset % 8);
      silent += run_write_scenario(w, fault, /*fail_rename=*/false,
                                   "scenario_" + std::to_string(scenario++));
    }
  }
  silent += run_write_scenario(w, FileFault{}, /*fail_rename=*/true, "rename");
  EXPECT_EQ(silent, 0u);
}

}  // namespace
}  // namespace eyeball
