// Shared end-to-end fixture: a small but complete world (gazetteer ->
// ecosystem -> ground truth -> dual geo databases -> RIB -> crawl ->
// pipeline), built once per test binary, and the field-exact analysis
// comparison every differential test uses.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "bgp/rib.hpp"
#include "core/pipeline.hpp"
#include "gazetteer/gazetteer.hpp"
#include "geodb/synthetic_db.hpp"
#include "p2p/crawler.hpp"
#include "topology/generator.hpp"
#include "topology/ground_truth.hpp"

namespace eyeball::testing {

struct PipelineFixture {
  gazetteer::Gazetteer gaz = gazetteer::Gazetteer::builtin();
  topology::AsEcosystem eco;
  topology::GroundTruthLocator truth;
  geodb::SyntheticGeoDatabase primary;
  geodb::SyntheticGeoDatabase secondary;
  bgp::RibSnapshot rib;
  bgp::IpToAsMapper mapper;
  core::EyeballPipeline pipeline;
  p2p::CrawlResult crawl;
  core::TargetDataset dataset;

  explicit PipelineFixture(double scale = 0.05, double coverage = 0.25,
                           std::uint64_t seed = 77,
                           core::PipelineConfig pipeline_config = {})
      : eco([&] {
          topology::EcosystemConfig config;
          config.seed = seed;
          return topology::generate_ecosystem(gaz, config.scaled(scale));
        }()),
        truth(eco, gaz),
        primary("geoip-city-like", truth, geodb::ErrorModel{}, 0xaaaa),
        secondary("ip2location-like", truth, geodb::ErrorModel{}, 0xbbbb),
        rib(bgp::RibSnapshot::from_ecosystem(eco, seed)),
        mapper(rib),
        pipeline(gaz, primary, secondary, mapper, pipeline_config),
        crawl([&] {
          p2p::CrawlerConfig config;
          config.seed = seed;
          config.coverage = coverage;
          return p2p::Crawler{eco, gaz, config}.crawl();
        }()),
        dataset(pipeline.build_dataset(crawl.samples)) {}
};

/// The fixture is expensive; share one instance per binary.
inline const PipelineFixture& shared_fixture() {
  static const PipelineFixture instance;
  return instance;
}

/// Field-exact equality of two analyses: every field of the
/// classification, grid, contour (partitions and boundary segments), peaks
/// and PoP mapping, with every double — each grid cell included — compared
/// by its IEEE-754 bit pattern, so -0.0 and 0.0 differ.
[[nodiscard]] inline bool same_analysis(const core::AsAnalysis& a,
                                        const core::AsAnalysis& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const auto same_point = [&same](const geo::GeoPoint& p, const geo::GeoPoint& q) {
    return same(p.lat_deg, q.lat_deg) && same(p.lon_deg, q.lon_deg);
  };
  const core::Classification& ca = a.classification;
  const core::Classification& cb = b.classification;
  if (a.asn != b.asn || ca.level != cb.level || ca.dominant_region != cb.dominant_region ||
      !same(ca.dominant_share, cb.dominant_share) || ca.continent != cb.continent) {
    return false;
  }

  const kde::DensityGrid& ga = a.footprint.grid;
  const kde::DensityGrid& gb = b.footprint.grid;
  if (ga.rows() != gb.rows() || ga.cols() != gb.cols() ||
      !same(ga.box().min_lat(), gb.box().min_lat()) ||
      !same(ga.box().max_lat(), gb.box().max_lat()) ||
      !same(ga.box().min_lon(), gb.box().min_lon()) ||
      !same(ga.box().max_lon(), gb.box().max_lon()) || !same(ga.cell_km(), gb.cell_km()) ||
      !std::equal(ga.values().begin(), ga.values().end(), gb.values().begin(),
                  gb.values().end(), same)) {
    return false;
  }

  const kde::Footprint& fa = a.footprint.contour;
  const kde::Footprint& fb = b.footprint.contour;
  const auto same_partition = [&](const kde::FootprintPartition& p,
                                  const kde::FootprintPartition& q) {
    return p.cell_count == q.cell_count && same(p.area_km2, q.area_km2) &&
           same(p.mass, q.mass) && same(p.peak_density, q.peak_density) &&
           same_point(p.peak_location, q.peak_location) && same(p.min_lat, q.min_lat) &&
           same(p.max_lat, q.max_lat) && same(p.min_lon, q.min_lon) &&
           same(p.max_lon, q.max_lon);
  };
  const auto same_segment = [&](const kde::BoundarySegment& p,
                                const kde::BoundarySegment& q) {
    return same_point(p.a, q.a) && same_point(p.b, q.b);
  };
  if (!same(fa.level, fb.level) ||
      !std::equal(fa.partitions.begin(), fa.partitions.end(), fb.partitions.begin(),
                  fb.partitions.end(), same_partition) ||
      !std::equal(fa.boundary.begin(), fa.boundary.end(), fb.boundary.begin(),
                  fb.boundary.end(), same_segment)) {
    return false;
  }

  const auto same_peak = [&](const kde::Peak& p, const kde::Peak& q) {
    return same_point(p.location, q.location) && same(p.density, q.density) &&
           same(p.score, q.score) && p.row == q.row && p.col == q.col;
  };
  if (!std::equal(a.footprint.peaks.begin(), a.footprint.peaks.end(),
                  b.footprint.peaks.begin(), b.footprint.peaks.end(), same_peak) ||
      a.footprint.sample_count != b.footprint.sample_count ||
      !same(a.footprint.bandwidth_km, b.footprint.bandwidth_km)) {
    return false;
  }

  const auto same_pop = [&](const core::PopEntry& p, const core::PopEntry& q) {
    return p.city == q.city && same(p.score, q.score) &&
           same(p.peak_density, q.peak_density) &&
           same_point(p.peak_location, q.peak_location);
  };
  return std::equal(a.pops.pops.begin(), a.pops.pops.end(), b.pops.pops.begin(),
                    b.pops.pops.end(), same_pop) &&
         a.pops.unmapped_peaks == b.pops.unmapped_peaks;
}

}  // namespace eyeball::testing
