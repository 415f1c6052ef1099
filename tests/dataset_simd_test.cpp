// Differential tests for the SoA conditioning stage: the batched
// GeoDatabase::lookup_batch path and the block-arena condition stage must be
// byte-identical to their scalar ancestors — results, per-AS peer order and
// stats (see DESIGN.md "Data layout & vectorization").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "geodb/synthetic_db.hpp"
#include "geodb/table_db.hpp"
#include "pipeline_fixture.hpp"
#include "util/rng.hpp"

namespace eyeball {
namespace {

/// Allocated eyeball IPs from the shared fixture's ecosystem (repetition
/// comes from the callers re-drawing with a seeded Rng).
std::vector<net::Ipv4Address> allocated_ips(std::size_t want) {
  const auto& f = testing::shared_fixture();
  std::vector<net::Ipv4Address> out;
  for (const auto& as : f.eco.ases()) {
    if (as.role != topology::AsRole::kEyeball) continue;
    for (const auto& pop : as.pops) {
      for (const auto& prefix : pop.prefixes) {
        const auto step = std::max<std::uint64_t>(1, prefix.size() / 16);
        for (std::uint64_t off = 0; off < prefix.size(); off += step) {
          out.push_back(net::Ipv4Address{
              static_cast<std::uint32_t>(prefix.address().value() + off)});
          if (out.size() >= want) return out;
        }
      }
    }
  }
  return out;
}

/// Draws a batch with heavy intra-batch repetition and a sprinkle of
/// unallocated IPs (database misses -> nullopt records).
std::vector<net::Ipv4Address> random_batch(util::Rng& rng,
                                           std::span<const net::Ipv4Address> pool,
                                           std::size_t count) {
  std::vector<net::Ipv4Address> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.bernoulli(0.05)) {
      // TEST-NET-3 style address no synthetic prefix covers.
      out.push_back(net::Ipv4Address{
          0xCB007100u + static_cast<std::uint32_t>(rng.uniform_index(64))});
    } else if (!out.empty() && rng.bernoulli(0.25)) {
      out.push_back(out[rng.uniform_index(out.size())]);  // intra-batch alias
    } else {
      out.push_back(pool[rng.uniform_index(pool.size())]);
    }
  }
  return out;
}

/// condition_chunk resolves each block through GeoDatabase::lookup_batch
/// alone, so every shipped database must answer a batch exactly as per-IP
/// lookup() would — repeats and unallocated IPs included.
void expect_batch_matches_scalar(const geodb::GeoDatabase& db, std::uint64_t seed) {
  const auto pool = allocated_ips(500);
  ASSERT_FALSE(pool.empty());
  util::Rng rng{seed};
  for (int round = 0; round < 12; ++round) {
    auto batch =
        random_batch(rng, pool, static_cast<std::size_t>(rng.uniform_int(1, 120)));
    batch.push_back(batch.front());                     // a repeat, always
    batch.push_back(net::Ipv4Address{203, 0, 113, 9});  // unallocated, always
    std::vector<std::optional<geodb::GeoRecord>> got(batch.size());
    db.lookup_batch(batch, got);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto want = db.lookup(batch[i]);
      ASSERT_EQ(got[i].has_value(), want.has_value())
          << db.name() << " round " << round << " ip " << batch[i].to_string();
      if (want) {
        EXPECT_EQ(got[i]->city, want->city);
        EXPECT_EQ(got[i]->region, want->region);
        EXPECT_EQ(got[i]->country_code, want->country_code);
        EXPECT_EQ(got[i]->city_id, want->city_id);
        EXPECT_EQ(got[i]->location, want->location);
      }
    }
    EXPECT_FALSE(got.back().has_value()) << db.name();
  }
}

TEST(GeoLookupBatch, MatchesScalarLookupForBothShippedDatabases) {
  const auto& f = testing::shared_fixture();
  expect_batch_matches_scalar(f.primary, 101);
  expect_batch_matches_scalar(f.secondary, 102);

  // A parsed table of every second eyeball prefix, exported from the
  // synthetic primary, so the pool mixes covered IPs with IPs the table has
  // no row for.
  std::vector<net::Ipv4Prefix> prefixes;
  bool keep = true;
  for (const auto& as : f.eco.ases()) {
    if (as.role != topology::AsRole::kEyeball) continue;
    for (const auto& pop : as.pops) {
      for (const auto& prefix : pop.prefixes) {
        if (keep) prefixes.push_back(prefix);
        keep = !keep;
      }
    }
  }
  const auto table = geodb::TableGeoDatabase::parse(
      "table", geodb::TableGeoDatabase::export_database(f.primary, prefixes), &f.gaz);
  const auto pool = allocated_ips(500);
  const auto covered = std::count_if(pool.begin(), pool.end(), [&](net::Ipv4Address ip) {
    return table.lookup(ip).has_value();
  });
  ASSERT_GT(covered, 0);
  ASSERT_LT(covered, static_cast<std::ptrdiff_t>(pool.size()));
  expect_batch_matches_scalar(table, 103);
}

void expect_same_dataset(const core::TargetDataset& reference,
                         const core::TargetDataset& candidate) {
  ASSERT_EQ(reference.stats(), candidate.stats())
      << core::diff_stats(reference.stats(), candidate.stats());
  ASSERT_EQ(reference.ases().size(), candidate.ases().size());
  for (std::size_t a = 0; a < reference.ases().size(); ++a) {
    const auto& ra = reference.ases()[a];
    const auto& ca = candidate.ases()[a];
    ASSERT_EQ(ra.asn, ca.asn) << "as index " << a;
    ASSERT_EQ(ra.peers.size(), ca.peers.size()) << "as index " << a;
    for (std::size_t p = 0; p < ra.peers.size(); ++p) {
      const auto& rp = ra.peers[p];
      const auto& cp = ca.peers[p];
      ASSERT_TRUE(rp.ip == cp.ip && rp.app == cp.app && rp.location == cp.location &&
                  rp.geo_error_km == cp.geo_error_km &&
                  rp.reported_city == cp.reported_city)
          << "as index " << a << " peer " << p;
    }
  }
}

// The arena path processes each shard in fixed 4096-sample blocks (see
// core::detail::kConditionBlock in dataset.cpp); sample counts straddling a
// block boundary exercise the partial final block against full-block runs.
TEST(ConditionArena, BlockBoundarySubspansStayByteIdentical) {
  const auto& f = testing::shared_fixture();
  const auto samples = std::span<const p2p::PeerSample>{f.crawl.samples};
  constexpr std::size_t kBlock = 4096;
  for (const std::size_t n :
       {std::size_t{1}, kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 17}) {
    if (n > samples.size()) break;
    const auto sub = samples.first(n);
    const auto reference = f.pipeline.build_dataset(sub, 1);
    for (const std::size_t threads : {2u, 0u}) {
      expect_same_dataset(reference, f.pipeline.build_dataset(sub, threads));
    }
  }
}

}  // namespace
}  // namespace eyeball
