// Golden pin on the analysis bits: the CRC32C of the canonical serving
// artifact's body (core/artifact.hpp; everything before the footer) and its
// size, encoded over the shared pipeline-fixture world, with every AS
// analyzed by analyze_all.  The artifact carries each
// AS's KDE grid, contour partitions and boundary segments, peaks and PoP
// mapping, so any drift in the density estimator, the peak finder or the
// contour extractor — however small — changes the digest.
//
// The differential suites compare a fast path against a reference built
// from the SAME estimator; this pin is the one check that ties today's
// bits to the ones an earlier, independently written implementation
// produced.  The value was recorded with the dense-box KDE (every cell of
// the padded bounding box convolved, peaks and contours scanned densely)
// and must hold unchanged for any optimisation that claims bit-identity.
// It was re-pinned for artifact format v2, which dropped the peer arena,
// the two per-AS peer fields and one table entry: the size fell by exactly
// 40 B per kept peer + 16 B per AS + 40 B, and every other payload byte
// was compared equal against the v1 encoding of this same fixture.  It was
// re-pinned again for v3 (one sequential record per AS instead of an
// offset index, per-kind arenas and an ASN order); the format-independent
// pin below held unchanged across that re-layout.  It was re-pinned for v4,
// which frames the same stats and AS-record bytes in the envelope EYBSNAP1
// uses (a 28-byte header, then a footer CRC and the tail magic) instead of
// a section table with a meta CRC, per-section CRCs and 8-byte padding: the
// size fell by 107 B, and v4's stats and record bytes were compared equal,
// byte for byte, with v3's two section payloads of this same fixture.
// Since v4 the digest covers everything before the footer, as in
// snapshot_golden_test: a CRC32C over a message followed by its own CRC
// and a fixed tail magic is the same residue for every well-formed file,
// so a whole-file CRC pins nothing.
// It depends on libm's exp() and the IEEE-754 double arithmetic of an
// x86-64 glibc toolchain; a different libm may legitimately need a
// re-record, which must then be justified in CHANGES.md.
//
// The second pin is independent of any on-disk format: a CRC32C over a
// dump of analyze_all's output written by this file alone, field by field
// in declaration order, every double as its IEEE-754 bit pattern and every
// grid cell (zeros included) in row-major order.  A change to the
// artifact's layout must leave it untouched; only a change to the analysis
// bits themselves can move it.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "pipeline_fixture.hpp"
#include "util/crc32c.hpp"

namespace eyeball {
namespace {

constexpr std::uint32_t kGoldenCrc = 0x4b2a1b44;
constexpr std::size_t kGoldenBytes = 25184013;
/// Footer: the CRC32C of everything before it (u32) and the 8-byte tail
/// magic.
constexpr std::size_t kFooterSize = 4 + 8;

constexpr std::uint32_t kAnalysisDumpCrc = 0x2aabec09;
constexpr std::uint64_t kAnalysisDumpBytes = 667052293;

/// Appends `v` little-endian, 8 bytes, to the dump.
void dump_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::byte>((v >> shift) & 0xffU));
  }
}

void dump_f64(std::vector<std::byte>& out, double v) {
  dump_u64(out, std::bit_cast<std::uint64_t>(v));
}

void dump_point(std::vector<std::byte>& out, const geo::GeoPoint& p) {
  dump_f64(out, p.lat_deg);
  dump_f64(out, p.lon_deg);
}

/// Every field of one analysis, in declaration order.
void dump_analysis(std::vector<std::byte>& out, const core::AsAnalysis& a) {
  dump_u64(out, net::value_of(a.asn));
  const core::Classification& c = a.classification;
  dump_u64(out, static_cast<std::uint64_t>(c.level));
  dump_u64(out, c.dominant_region.size());
  for (const char ch : c.dominant_region) out.push_back(static_cast<std::byte>(ch));
  dump_f64(out, c.dominant_share);
  dump_u64(out, static_cast<std::uint64_t>(c.continent));

  const core::AsFootprint& fp = a.footprint;
  dump_u64(out, fp.grid.rows());
  dump_u64(out, fp.grid.cols());
  dump_f64(out, fp.grid.box().min_lat());
  dump_f64(out, fp.grid.box().max_lat());
  dump_f64(out, fp.grid.box().min_lon());
  dump_f64(out, fp.grid.box().max_lon());
  dump_f64(out, fp.grid.cell_km());
  for (const double v : fp.grid.values()) dump_f64(out, v);
  dump_f64(out, fp.contour.level);
  dump_u64(out, fp.contour.partitions.size());
  for (const kde::FootprintPartition& p : fp.contour.partitions) {
    dump_u64(out, p.cell_count);
    dump_f64(out, p.area_km2);
    dump_f64(out, p.mass);
    dump_f64(out, p.peak_density);
    dump_point(out, p.peak_location);
    dump_f64(out, p.min_lat);
    dump_f64(out, p.max_lat);
    dump_f64(out, p.min_lon);
    dump_f64(out, p.max_lon);
  }
  dump_u64(out, fp.contour.boundary.size());
  for (const kde::BoundarySegment& s : fp.contour.boundary) {
    dump_point(out, s.a);
    dump_point(out, s.b);
  }
  dump_u64(out, fp.peaks.size());
  for (const kde::Peak& p : fp.peaks) {
    dump_point(out, p.location);
    dump_f64(out, p.density);
    dump_f64(out, p.score);
    dump_u64(out, p.row);
    dump_u64(out, p.col);
  }
  dump_u64(out, fp.sample_count);
  dump_f64(out, fp.bandwidth_km);

  dump_u64(out, a.pops.pops.size());
  for (const core::PopEntry& pop : a.pops.pops) {
    dump_u64(out, pop.city);
    dump_f64(out, pop.score);
    dump_f64(out, pop.peak_density);
    dump_point(out, pop.peak_location);
  }
  dump_u64(out, a.pops.unmapped_peaks);
}

TEST(AnalysisGolden, ArtifactDigestPinnedAtEveryThreadCount) {
  const auto& f = testing::shared_fixture();
  const std::uint64_t fingerprint =
      core::SnapshotCodec::config_fingerprint(f.pipeline.config().dataset);
  for (const std::size_t threads : {1u, 2u, 0u}) {
    const auto analyses = f.pipeline.analyze_all(f.dataset.ases(), threads);
    std::vector<std::byte> bytes;
    const auto status =
        core::ArtifactCodec::encode(f.dataset, analyses, 1, fingerprint, bytes);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(bytes.size(), kGoldenBytes) << "threads=" << threads;
    ASSERT_GT(bytes.size(), kFooterSize);
    const std::uint32_t body_crc = util::crc32c_fast(
        std::span<const std::byte>{bytes}.first(bytes.size() - kFooterSize));
    EXPECT_EQ(body_crc, kGoldenCrc)
        << "threads=" << threads << " digest 0x" << std::hex << body_crc;
  }
}

TEST(AnalysisGolden, FormatIndependentAnalysisDumpPinnedAtEveryThreadCount) {
  const auto& f = testing::shared_fixture();
  for (const std::size_t threads : {1u, 2u, 0u}) {
    const auto analyses = f.pipeline.analyze_all(f.dataset.ases(), threads);
    // Chained per AS so the dense grids never sit in one buffer together.
    std::uint32_t crc = 0;
    std::uint64_t total = 0;
    std::vector<std::byte> dump;
    for (const core::AsAnalysis& analysis : analyses) {
      dump.clear();
      dump_analysis(dump, analysis);
      crc = util::crc32c_fast(dump, crc);
      total += dump.size();
    }
    EXPECT_EQ(total, kAnalysisDumpBytes) << "threads=" << threads;
    EXPECT_EQ(crc, kAnalysisDumpCrc)
        << "threads=" << threads << " digest 0x" << std::hex << crc;
  }
}

}  // namespace
}  // namespace eyeball
