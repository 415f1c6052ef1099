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
//   2. Image mutation: EVERY single-bit flip over the 28-byte header and
//      the 12-byte footer, strided flips across the stats and the AS
//      records, and EVERY truncation length — each mutated image must be
//      refused with kCorruption.  The format makes this provable: every
//      byte of the file is covered by the footer CRC or the tail-magic
//      compare.
//   3. Hostile structure: header, stats and AS-record fields rewritten
//      behind a RESEALED footer CRC (a future version, window and AS counts
//      past the image, window counters that break conservation,
//      out-of-range enums, inconsistent grid geometry, non-canonical runs,
//      counts of 2^60, trailing record bytes) — past the checksum on
//      purpose, so open's bounds or materialize's field checks are what
//      refuse them.
//
// Plus format skew: intact images of every earlier format version are
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

/// Head magic, version, epoch, config fingerprint.
constexpr std::size_t kHeaderSize = 28;
/// The footer CRC32C and the 8-byte tail magic.
constexpr std::size_t kFooterSize = 12;
/// The stats record follows the header; its ninth counter is final_ases,
/// its eleventh the window count.
constexpr std::size_t kFinalAsesAt = kHeaderSize + 8 * 8;
constexpr std::size_t kWindowCountAt = kHeaderSize + 10 * 8;
/// Window 0's record follows the window count; `offered` is its first field.
constexpr std::size_t kFirstWindowAt = kWindowCountAt + 8;

/// A deliberately SMALL epoch: the exhaustive sweeps below scale with the
/// image size (every truncation length), so the fixture takes one
/// truncated window and a lowered AS threshold.
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

/// Recomputes the footer CRC after a deliberate rewrite, so the mutation
/// reaches the structural checks instead of dying at the checksum.
void reseal(std::span<std::byte> image) {
  const std::size_t sealed = image.size() - kFooterSize;
  write_u32(image, sealed, util::crc32c(image.first(sealed)));
}

/// File offset of the first AS record: past the header and the stats.
[[nodiscard]] std::size_t records_at(std::span<const std::byte> image) {
  return kWindowCountAt + 8 +
         40 * static_cast<std::size_t>(read_u64(image, kWindowCountAt));
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
  std::size_t at = records_at(image);
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

TEST(ArtifactFaults, EveryHeaderAndFooterBitFlipIsTypedCorruption) {
  const auto& w = fault_world();
  ASSERT_GT(w.dataset.ases().size(), 0u)
      << "fixture produced no ASes — sweeps below would be vacuous";
  ASSERT_GT(w.image.size(), kHeaderSize + kFooterSize);

  std::size_t silent = 0;
  std::vector<std::byte> mutated;
  // Every bit of the header (magic, version, epoch, fingerprint) and of the
  // footer (CRC, tail magic).  The CRC covers the header and the tail
  // compare covers the magic, so every flip must refuse as kCorruption —
  // a flipped version bit included, which must never read as skew.
  std::vector<std::size_t> positions;
  for (std::size_t at = 0; at < kHeaderSize; ++at) positions.push_back(at);
  for (std::size_t at = w.image.size() - kFooterSize; at < w.image.size(); ++at) {
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
  // Payload region: the stats and every AS record are CRC-covered, so a
  // flip anywhere must refuse.  Strided to keep the suite's runtime
  // bounded; the stride is coprime-ish with the record sizes so hits land
  // on every field family over the sweep.
  const std::size_t begin = kHeaderSize;
  const std::size_t end = w.image.size() - kFooterSize;
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

// ---- Sweep 3: hostile structure behind a valid checksum ------------------

TEST(ArtifactFaults, ResealedVersionAndCountRewritesAreTypedRefusals) {
  const auto& w = fault_world();
  ASSERT_EQ(read_u64(w.image, kFinalAsesAt), w.dataset.ases().size());
  std::size_t silent = 0;
  std::vector<std::byte> mutated;

  const auto fresh = [&] { mutated = w.image; return std::span<std::byte>{mutated}; };

  {  // future format version, CRC-valid: the one typed NON-corruption
     // envelope refusal
    auto m = fresh();
    write_u32(m, 8, core::ArtifactCodec::kFormatVersion + 1);
    reseal(m);
    silent += expect_refused(mutated, {StatusCode::kVersionMismatch}, "version +1");
  }
  {  // AS count (the stats' final_ases) one past the records: every record
     // decodes, then materialize runs out of bytes for the extra one
    auto m = fresh();
    write_u64(m, kFinalAsesAt, read_u64(m, kFinalAsesAt) + 1);
    reseal(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "final_ases +1");
  }
  {  // AS count far past what the record bytes could hold: refused at open,
     // before materialize reserves anything for it
    auto m = fresh();
    write_u64(m, kFinalAsesAt, std::uint64_t{1} << 60);
    reseal(m);
    core::ArtifactView view;
    const Status opened = core::ArtifactView::from_borrowed(mutated, view);
    EXPECT_EQ(opened.code(), StatusCode::kCorruption) << opened;
  }
  {  // window count far past the image: refused before any reservation
    auto m = fresh();
    write_u64(m, kWindowCountAt, std::uint64_t{1} << 60);
    reseal(m);
    core::ArtifactView view;
    const Status opened = core::ArtifactView::from_borrowed(mutated, view);
    EXPECT_EQ(opened.code(), StatusCode::kCorruption) << opened;
  }
  {  // window 0's offered one past duplicates + admitted + rejected: the
     // trail breaks conservation, refused at open like the snapshot's
    ASSERT_GE(read_u64(w.image, kWindowCountAt), 1U);
    auto m = fresh();
    write_u64(m, kFirstWindowAt, read_u64(m, kFirstWindowAt) + 1);
    reseal(m);
    core::ArtifactView view;
    const Status opened = core::ArtifactView::from_borrowed(mutated, view);
    EXPECT_EQ(opened.code(), StatusCode::kCorruption) << opened;
  }
  EXPECT_EQ(silent, 0u);
}

/// An intact EYBART1 image of an empty epoch in an earlier format version,
/// laid out field by field: a 56-byte header sealed by a meta CRC at byte
/// 48, then v1's eleven table entries (the fourth being its peer arena,
/// with the raw size repeated at entry byte 24), v2's ten (that slot zero)
/// or v3's two.  Either way an all-zero 88-byte stats record, every other
/// section empty, and the tail magic with no footer CRC.  Byte-equal to
/// what that version's encoder wrote for an empty dataset at this epoch
/// and fingerprint.
[[nodiscard]] std::vector<std::byte> empty_previous_image(std::uint32_t version,
                                                          std::uint64_t epoch,
                                                          std::uint64_t fingerprint) {
  const std::size_t sections = version == 1 ? 11 : version == 2 ? 10 : 2;
  constexpr std::size_t kOldHeaderSize = 56;
  constexpr std::size_t kTableEntrySize = 40;
  constexpr std::size_t kStatsSize = 88;
  const std::size_t payload_begin = kOldHeaderSize + sections * kTableEntrySize;
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
    const std::size_t entry = kOldHeaderSize + s * kTableEntrySize;
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
  // v1-v3 carry no footer CRC, so theirs fails; open then checks the meta
  // CRC those versions sealed their header and table with, and an intact
  // older image is refused at the version check — never mistaken for a
  // damaged v4 image.
  const auto& w = fault_world();
  for (const std::uint32_t version : {1u, 2u, 3u}) {
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

    // The same image with a flipped epoch bit fails that meta CRC too: a
    // damaged older image is corruption, not skew.
    std::vector<std::byte> damaged = image;
    damaged[16] ^= std::byte{1};
    EXPECT_EQ(expect_refused(damaged, {StatusCode::kCorruption}, "damaged older image"), 0u);
  }
}

TEST(ArtifactFaults, HostileRecordFieldsAreRefusedByMaterialize) {
  const auto& w = fault_world();
  ASSERT_GT(w.dataset.ases().size(), 0u);
  const Record0 r = record0(w.image);
  std::size_t silent = 0;
  std::vector<std::byte> mutated;

  // Each case rewrites one field of AS record 0 behind a resealed CRC, so
  // the image opens and only materialize's field checks stand between it
  // and a wrong answer, a huge allocation or a wild write.
  const auto hostile_u64 = [&](std::size_t at, std::uint64_t value, const char* label) {
    mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u64(m, at, value);
    reseal(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, label);
  };
  const auto hostile_u32 = [&](std::size_t at, std::uint32_t value, const char* label) {
    mutated = w.image;
    const std::span<std::byte> m{mutated};
    write_u32(m, at, value);
    reseal(m);
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
  {  // Eight bytes after the last record, ahead of the footer: the record
     // bytes must be consumed exactly.
    mutated = w.image;
    mutated.insert(mutated.end() - static_cast<std::ptrdiff_t>(kFooterSize), 8,
                   std::byte{0});
    reseal(mutated);
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
    reseal(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, label);
  };

  // Run 0 of AS 0 rewritten behind a resealed CRC: only the run
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
    reseal(m);
    silent += expect_refused(mutated, {StatusCode::kCorruption}, "bit-zero value");
  }
  EXPECT_EQ(silent, 0u);
}

TEST(ArtifactFaults, GridAboveTheCellBudgetIsRefusedByMaterialize) {
  // Shrink AS 0's cell size and re-derive its rows/cols: the image is
  // structurally valid (the runs and peaks still sit inside the larger
  // grid, the footer CRC is resealed), so open accepts it.  But no grid this
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
  reseal(m);

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
  ASSERT_GT(file_size, kHeaderSize + kFooterSize);

  const std::vector<std::uint64_t> offsets = {
      0,                       // head magic
      9,                       // format version
      21,                      // config fingerprint
      kHeaderSize + 1,         // first stats byte
      file_size / 2,           // record interior
      file_size - 10,          // footer CRC
      file_size - 4,           // tail magic
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
