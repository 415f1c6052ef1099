// Golden pin on the analysis bits: the CRC32C of the canonical serving
// artifact (core/artifact.hpp) encoded over the shared pipeline-fixture
// world, with every AS analyzed by analyze_all.  The artifact carries each
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
// It was re-pinned once, for artifact format v2, which dropped the peer
// arena, the two per-AS peer fields and one table entry: the size fell by
// exactly 40 B per kept peer + 16 B per AS + 40 B, and every other payload
// byte was compared equal against the v1 encoding of this same fixture.
// It depends on libm's exp() and the IEEE-754 double arithmetic of an
// x86-64 glibc toolchain; a different libm may legitimately need a
// re-record, which must then be justified in CHANGES.md.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "pipeline_fixture.hpp"
#include "util/crc32c.hpp"

namespace eyeball {
namespace {

constexpr std::uint32_t kGoldenCrc = 0x1a424eaf;
constexpr std::size_t kGoldenBytes = 25189168;

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
    EXPECT_EQ(util::crc32c_fast(bytes), kGoldenCrc)
        << "threads=" << threads << " digest 0x" << std::hex << util::crc32c_fast(bytes);
  }
}

}  // namespace
}  // namespace eyeball
