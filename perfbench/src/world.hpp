// The system under test and the inputs the benchmark feeds it.
//
// World is the service's reference data: ecosystem, the two geo databases,
// the RIB and the pipeline.  It is generated from a fixed seed, so runs
// differ only in their inputs.
// Inputs are everything the program is handed — crawl windows and query
// ASNs — and come from the run's --seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/rib.hpp"
#include "core/pipeline.hpp"
#include "gazetteer/gazetteer.hpp"
#include "geodb/synthetic_db.hpp"
#include "p2p/crawler.hpp"
#include "topology/ground_truth.hpp"
#include "topology/types.hpp"

namespace perfbench {

using Window = std::vector<eyeball::p2p::PeerSample>;

/// Size knobs; the defaults are what BENCHMARK.json runs, tiny_profile()
/// what the self-test runs.
struct Profile {
  double world_scale = 0.03;
  double coverage = 0.02;
  /// Set-ups per run; setup_s reports their median.
  std::size_t setup_repeats = 3;
  /// Point queries the backfill replica's reader sends each cycle.
  std::size_t probe_queries = std::size_t{1} << 24;
  /// Trickle windows generated per batch (more follow if a run uses them up).
  std::size_t trickle_batch = 32;
  /// Samples per trickle window, spread evenly over the re-crawled ASes.
  std::size_t trickle_samples = 1500;
};

[[nodiscard]] Profile tiny_profile();

/// Never moved or copied: the pipeline references the databases and mapper.
struct World {
  World(const Profile& profile, std::size_t writer_threads);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  eyeball::gazetteer::Gazetteer gaz;
  eyeball::topology::AsEcosystem eco;
  eyeball::topology::GroundTruthLocator truth;
  eyeball::geodb::SyntheticGeoDatabase primary;
  eyeball::geodb::SyntheticGeoDatabase secondary;
  eyeball::bgp::RibSnapshot rib;
  eyeball::bgp::IpToAsMapper mapper;
  eyeball::core::EyeballPipeline pipeline;
};

/// One read: the ASN asked, and whether the generator drew it as a miss.
struct Query {
  eyeball::net::Asn asn{};
  bool miss = false;
};

/// Share of reads the generator draws from unserved ASNs.
inline constexpr double kMissShare = 0.05;

struct Inputs {
  /// The six monthly windows of p2p::longitudinal_crawl, duplicates kept.
  std::vector<Window> months;
  /// ASes the six months leave served (one-shot conditioning), ascending.
  std::vector<eyeball::net::Asn> served;
  /// The reader's draws: Zipf(1.0) over `served` plus kMissShare unserved
  /// ASNs, walked cyclically.
  std::vector<Query> stream;
};

[[nodiscard]] Inputs make_inputs(const World& world, const Profile& profile,
                                 std::uint64_t seed);

/// Trickle windows [first, first + count): each a focused Crawler::crawl_as
/// re-crawl of the next ~5% of the served ASes in a seeded rotation, under
/// its own crawler seed, cut to Profile::trickle_samples.  Window i depends
/// only on (seed, i).
[[nodiscard]] std::vector<Window> make_trickle_windows(const World& world,
                                                       const Profile& profile,
                                                       const Inputs& inputs,
                                                       std::uint64_t seed,
                                                       std::size_t first, std::size_t count);

}  // namespace perfbench
