// Golden pin on the EYBSNAP1 v2 bytes: the CRC32C of the body (everything
// before the footer) and the size of SnapshotCodec::encode over a streaming
// builder fed five churned windows of the shared pipeline-fixture world.
// The snapshot carries the admitted stream, the window trail and the digest
// of the derived state (kept and sub-threshold buckets, drop counters), so
// any change to the codec's byte layout — field order, widths, record
// framing, CRC placement — to the stream it captures, or to what
// conditioning derives from it changes the pin.
//
// The body, not the whole file, is what is digested: a CRC32C over a
// message followed by its own CRC and a fixed tail magic is the same
// residue for every well-formed file, so a whole-file CRC pins nothing.
//
// snapshot_test proves encode/decode round-trips and is canonical; this pin
// is the one check that ties today's bytes to the ones an earlier
// implementation wrote, so a refactor of the codec's byte helpers can show
// it moved nothing.  The value depends on the conditioning arithmetic of an
// x86-64 glibc toolchain (geo-error distances go through libm), the same
// caveat as analysis_golden_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "util/crc32c.hpp"

namespace eyeball {
namespace {

constexpr std::uint32_t kGoldenCrc = 0xe6a98ea1;
constexpr std::size_t kGoldenBytes = 8034820;
/// Footer: the body CRC32C (u32) and the 8-byte tail magic.
constexpr std::size_t kFooterSize = 4 + 8;

TEST(SnapshotGolden, EncodeDigestPinnedAtEveryThreadCount) {
  const auto& f = testing::shared_fixture();
  // Lowered min-peers (as in snapshot_test) so the state holds both kept
  // and sub-threshold buckets.
  auto config = f.pipeline.config().dataset;
  config.min_peers_per_as = 300;
  const core::DatasetBuilder builder{f.primary, f.secondary, f.mapper, config};
  const auto churn = [&] {
    p2p::CrawlerConfig crawl_config;
    crawl_config.seed = 77;
    crawl_config.coverage = 0.05;
    p2p::ChurnConfig churn_config;
    churn_config.seed = 2009;
    churn_config.windows = 5;
    churn_config.lease_survival = 0.6;
    return p2p::longitudinal_crawl(f.eco, f.gaz, crawl_config, churn_config);
  }();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    auto streaming = builder.streaming();
    for (const auto& window : churn.windows) streaming.ingest(window, threads);
    const std::vector<std::byte> bytes = core::SnapshotCodec::encode(streaming, 1);
    EXPECT_EQ(bytes.size(), kGoldenBytes) << "threads=" << threads;
    ASSERT_GT(bytes.size(), kFooterSize);
    const std::uint32_t body_crc =
        util::crc32c(std::span<const std::byte>{bytes}.first(bytes.size() - kFooterSize));
    EXPECT_EQ(body_crc, kGoldenCrc)
        << "threads=" << threads << " digest 0x" << std::hex << body_crc;
  }
}

}  // namespace
}  // namespace eyeball
