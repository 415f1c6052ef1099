#include "world.hpp"

#include <algorithm>
#include <span>

#include "core/streaming_dataset.hpp"
#include "p2p/churn.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using eyeball::net::Asn;
using eyeball::util::Rng;

/// Seed of the reference data (the repo's bench-world seed).
constexpr std::uint64_t kWorldSeed = 2009;
constexpr std::size_t kStreamLength = std::size_t{1} << 20;
constexpr std::size_t kMissPool = 64;

eyeball::topology::AsEcosystem make_ecosystem(const eyeball::gazetteer::Gazetteer& gaz,
                                              double scale) {
  eyeball::topology::EcosystemConfig config;
  config.seed = kWorldSeed;
  return eyeball::topology::generate_ecosystem(gaz, config.scaled(scale));
}

eyeball::core::PipelineConfig pipeline_config(std::size_t writer_threads) {
  eyeball::core::PipelineConfig config;
  config.threads = writer_threads;
  config.dataset.threads = writer_threads;
  return config;
}

eyeball::p2p::CrawlerConfig crawler_config(const Profile& profile, std::uint64_t seed) {
  eyeball::p2p::CrawlerConfig config;
  config.seed = seed;
  config.coverage = profile.coverage;
  return config;
}

/// Readers' ASN draws: Zipf(1.0) over a seeded popularity ranking of the
/// served ASes, kMissShare of the time an ASN from the miss pool.
std::vector<Query> make_stream(const std::vector<Asn>& served,
                               const std::vector<Asn>& misses, Rng rng) {
  std::vector<Asn> ranked = served;
  for (std::size_t i = ranked.size(); i > 1; --i) {
    std::swap(ranked[i - 1], ranked[rng.uniform_index(i)]);
  }
  std::vector<double> cdf(ranked.size());
  double total = 0.0;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<Query> stream(kStreamLength);
  for (Query& query : stream) {
    if (rng.uniform() < kMissShare) {
      query = {misses[rng.uniform_index(misses.size())], true};
      continue;
    }
    const double u = rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    query = {ranked[std::min(rank, ranked.size() - 1)], false};
  }
  return stream;
}

}  // namespace

Profile tiny_profile() {
  Profile profile;
  profile.world_scale = 0.01;
  profile.coverage = 0.005;
  profile.setup_repeats = 2;
  profile.probe_queries = std::size_t{1} << 14;
  profile.trickle_batch = 4;
  profile.trickle_samples = 400;
  return profile;
}

World::World(const Profile& profile, std::size_t writer_threads)
    : gaz(eyeball::gazetteer::Gazetteer::builtin()),
      eco(make_ecosystem(gaz, profile.world_scale)),
      truth(eco, gaz),
      primary("geoip-city-like", truth, eyeball::geodb::ErrorModel{}, 0xaaaa),
      secondary("ip2location-like", truth, eyeball::geodb::ErrorModel{}, 0xbbbb),
      rib(eyeball::bgp::RibSnapshot::from_ecosystem(eco, kWorldSeed)),
      mapper(rib),
      pipeline(gaz, primary, secondary, mapper, pipeline_config(writer_threads)) {}

Inputs make_inputs(const World& world, const Profile& profile, std::uint64_t seed) {
  Inputs inputs;
  // The crawler seed fixes each app's penetration per country, a property
  // of the world; the churn seed picks who is online under which address.
  eyeball::p2p::ChurnConfig churn;
  churn.seed = seed;
  inputs.months = eyeball::p2p::longitudinal_crawl(world.eco, world.gaz,
                                                   crawler_config(profile, kWorldSeed), churn)
                      .windows;

  Window all;
  for (const Window& month : inputs.months) all.insert(all.end(), month.begin(), month.end());
  const eyeball::core::TargetDataset served =
      world.pipeline.build_dataset(eyeball::core::dedup_first_observation(all));
  for (const auto& as : served.ases()) inputs.served.push_back(as.asn);
  std::sort(inputs.served.begin(), inputs.served.end());

  // Misses: eyeball ASes conditioning dropped, then private-use ASNs.
  const auto is_served = [&](Asn asn) {
    return std::binary_search(inputs.served.begin(), inputs.served.end(), asn);
  };
  std::vector<Asn> misses;
  for (const Asn asn : world.eco.eyeballs()) {
    if (!is_served(asn) && misses.size() < kMissPool / 2) misses.push_back(asn);
  }
  for (std::uint32_t asn = 64512; misses.size() < kMissPool; ++asn) {
    if (!is_served(Asn{asn})) misses.push_back(Asn{asn});
  }

  inputs.stream =
      make_stream(inputs.served, misses, Rng{eyeball::util::mix64(seed, 0x9e3779b97f4a7c15ULL)});
  return inputs;
}

std::vector<Window> make_trickle_windows(const World& world, const Profile& profile,
                                         const Inputs& inputs, std::uint64_t seed,
                                         std::size_t first, std::size_t count) {
  const std::size_t per_window = std::max<std::size_t>(
      1, (inputs.served.size() * 5 + 50) / 100);
  // The re-crawl walks a seeded rotation of the served ASes, so every AS
  // comes round once per rotation.
  std::vector<Asn> rotation = inputs.served;
  Rng order{eyeball::util::mix64(seed, 0x70a7e5ULL)};
  for (std::size_t i = rotation.size(); i > 1; --i) {
    std::swap(rotation[i - 1], rotation[order.uniform_index(i)]);
  }
  std::vector<Window> windows;
  for (std::size_t w = first; w < first + count; ++w) {
    Rng rng{eyeball::util::mix64(seed, 0x7a11c0de00000000ULL + w)};
    const eyeball::p2p::Crawler crawler{world.eco, world.gaz,
                                        crawler_config(profile, rng())};
    Window window;
    for (std::size_t k = 0; k < per_window; ++k) {
      const Asn asn = rotation[(w * per_window + k) % rotation.size()];
      Window samples = crawler.crawl_as(world.eco.at(asn));
      const std::size_t keep = std::min(samples.size(), profile.trickle_samples / per_window);
      for (std::size_t i = 0; i < keep; ++i) {
        std::swap(samples[i], samples[i + rng.uniform_index(samples.size() - i)]);
      }
      window.insert(window.end(), samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    windows.push_back(std::move(window));
  }
  return windows;
}

}  // namespace perfbench
