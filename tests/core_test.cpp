#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "util/rng.hpp"
#include "core/dataset.hpp"
#include "core/multi_bandwidth.hpp"
#include "core/pipeline.hpp"
#include "pipeline_fixture.hpp"
#include "util/stats.hpp"

namespace eyeball::core {
namespace {

using eyeball::testing::same_analysis;
using eyeball::testing::shared_fixture;

// ---- Dataset conditioning (§2) ----

TEST(Dataset, StatsAccountForEverySample) {
  const auto& f = shared_fixture();
  const auto& stats = f.dataset.stats();
  EXPECT_EQ(stats.raw_samples, f.crawl.samples.size());
  EXPECT_EQ(stats.raw_samples, stats.missing_geo + stats.high_error + stats.unmapped_as +
                                   stats.peers_in_small_ases + stats.final_peers);
  EXPECT_GT(stats.final_ases, 0u);
  EXPECT_GT(stats.final_peers, 0u);
}

TEST(Dataset, EveryAsMeetsMinimumPeers) {
  const auto& f = shared_fixture();
  for (const auto& as : f.dataset.ases()) {
    EXPECT_GE(as.peers.size(), f.pipeline.config().dataset.min_peers_per_as);
  }
}

TEST(Dataset, GeoErrorFilterHolds) {
  const auto& f = shared_fixture();
  const double cap = f.pipeline.config().dataset.max_geo_error_km;
  for (const auto& as : f.dataset.ases()) {
    for (const auto& peer : as.peers) {
      EXPECT_LE(peer.geo_error_km, cap);
    }
  }
}

TEST(Dataset, P90ErrorRuleHolds) {
  const auto& f = shared_fixture();
  for (const auto& as : f.dataset.ases()) {
    const auto errors = as.geo_errors();
    EXPECT_LE(util::percentile(errors, 90.0),
              f.pipeline.config().dataset.max_p90_geo_error_km);
  }
}

TEST(Dataset, PeersMapToTheirAs) {
  const auto& f = shared_fixture();
  for (const auto& as : f.dataset.ases()) {
    std::size_t checked = 0;
    for (const auto& peer : as.peers) {
      EXPECT_EQ(f.rib.origin(peer.ip), as.asn);
      if (++checked > 20) break;
    }
  }
}

TEST(Dataset, OnlyEyeballAsesSurvive) {
  const auto& f = shared_fixture();
  for (const auto& as : f.dataset.ases()) {
    EXPECT_EQ(f.eco.at(as.asn).role, topology::AsRole::kEyeball);
  }
}

TEST(Dataset, FindWorks) {
  const auto& f = shared_fixture();
  ASSERT_FALSE(f.dataset.ases().empty());
  const auto asn = f.dataset.ases()[0].asn;
  EXPECT_NE(f.dataset.find(asn), nullptr);
  EXPECT_EQ(f.dataset.find(net::Asn{4294900000u}), nullptr);
}

TEST(Dataset, TighterErrorThresholdKeepsFewerPeers) {
  const auto& f = shared_fixture();
  DatasetConfig strict;
  strict.max_geo_error_km = 20.0;
  const DatasetBuilder builder{f.primary, f.secondary, f.mapper, strict};
  const auto strict_dataset = builder.build(f.crawl.samples);
  EXPECT_LT(strict_dataset.stats().final_peers, f.dataset.stats().final_peers);
  EXPECT_GT(strict_dataset.stats().high_error, f.dataset.stats().high_error);
}

TEST(Dataset, HigherMinPeersKeepsFewerAses) {
  const auto& f = shared_fixture();
  DatasetConfig strict;
  strict.min_peers_per_as = 5000;
  const DatasetBuilder builder{f.primary, f.secondary, f.mapper, strict};
  const auto strict_dataset = builder.build(f.crawl.samples);
  EXPECT_LE(strict_dataset.stats().final_ases, f.dataset.stats().final_ases);
}

TEST(AsPeerSet, AccessorsConsistent) {
  const auto& f = shared_fixture();
  const auto& as = f.dataset.ases()[0];
  EXPECT_EQ(as.locations().size(), as.peers.size());
  EXPECT_EQ(as.geo_errors().size(), as.peers.size());
  std::size_t total = 0;
  for (const auto app : p2p::kAllApps) total += as.count_for(app);
  EXPECT_EQ(total, as.peers.size());
}

TEST(AsPeerSet, GeoErrorsScratchOverloadMatchesAndReuses) {
  const auto& f = shared_fixture();
  std::vector<double> scratch{1.0, 2.0, 3.0};  // stale content must be cleared
  for (const auto& as : f.dataset.ases()) {
    as.geo_errors(scratch);
    EXPECT_EQ(scratch, as.geo_errors());
  }
}

TEST(AsPeerSet, GeoErrorsScratchOverloadExactValuesAndOrder) {
  AsPeerSet as;
  as.asn = net::Asn{64500};
  for (const double error : {12.5, 0.0, 79.9}) {
    PeerRecord peer;
    peer.geo_error_km = error;
    as.peers.push_back(peer);
  }
  std::vector<double> scratch{-1.0};
  as.geo_errors(scratch);
  EXPECT_EQ(scratch, (std::vector<double>{12.5, 0.0, 79.9}));  // peer order kept
  EXPECT_EQ(scratch, as.geo_errors());
}

TEST(AsPeerSet, GeoErrorsScratchOverloadClearsForEmptySet) {
  // The p90 filter reuses one scratch buffer across ASes; an empty AS must
  // leave it empty, not holding the previous AS's errors.
  const AsPeerSet empty;
  std::vector<double> scratch{5.0, 6.0};
  empty.geo_errors(scratch);
  EXPECT_TRUE(scratch.empty());
  EXPECT_TRUE(empty.geo_errors().empty());
}

TEST(Dataset, FindAgreesWithLinearScan) {
  const auto& f = shared_fixture();
  const auto scan = [&](net::Asn asn) -> const AsPeerSet* {
    for (const auto& as : f.dataset.ases()) {
      if (as.asn == asn) return &as;
    }
    return nullptr;
  };
  for (const auto& as : f.dataset.ases()) {
    EXPECT_EQ(f.dataset.find(as.asn), scan(as.asn));
  }
  // Probe ASNs around every present one so misses exercise both lower_bound
  // outcomes (between entries and past the end).
  for (const auto& as : f.dataset.ases()) {
    const auto value = net::value_of(as.asn);
    for (const auto probe : {net::Asn{value - 1}, net::Asn{value + 1}}) {
      EXPECT_EQ(f.dataset.find(probe), scan(probe)) << value;
    }
  }
  EXPECT_EQ(f.dataset.find(net::Asn{4294900000u}), nullptr);
}

TEST(Dataset, RefusesAsnsThatAreNotStrictlyAscending) {
  const auto as = [](std::uint32_t asn) { return AsPeerSet{net::Asn{asn}, {}}; };
  EXPECT_THROW((TargetDataset{{as(7), as(7)}, DatasetStats{}}), std::invalid_argument);
  EXPECT_THROW((TargetDataset{{as(3), as(9), as(8)}, DatasetStats{}}),
               std::invalid_argument);
  const TargetDataset ascending{{as(3), as(8), as(9)}, DatasetStats{}};
  EXPECT_EQ(ascending.find(net::Asn{8}), &ascending.ases()[1]);
  EXPECT_EQ(ascending.find(net::Asn{7}), nullptr);
}

TEST(DatasetStats, EqualityAndDiffNameDivergedCounters) {
  const auto& f = shared_fixture();
  DatasetStats a = f.dataset.stats();
  DatasetStats b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(diff_stats(a, b), "");
  b.high_error += 3;
  b.final_peers += 1;
  EXPECT_NE(a, b);
  const auto diff = diff_stats(a, b);
  EXPECT_NE(diff.find("high_error"), std::string::npos) << diff;
  EXPECT_NE(diff.find("final_peers"), std::string::npos) << diff;
  EXPECT_EQ(diff.find("missing_geo"), std::string::npos) << diff;
}

TEST(DatasetStats, ToStringListsEveryCounter) {
  DatasetStats stats;
  stats.raw_samples = 12;
  stats.final_ases = 3;
  const auto text = to_string(stats);
  EXPECT_NE(text.find("raw_samples=12"), std::string::npos) << text;
  EXPECT_NE(text.find("final_ases=3"), std::string::npos) << text;
  EXPECT_NE(text.find("ases_above_p90_error=0"), std::string::npos) << text;
}

// ---- Builder edge cases (pinned pre/post parallel rewrite) ----

/// Answers every IP with one fixed record; pairs of these give every sample
/// an exact, controllable inter-database error.
class FixedGeoDatabase final : public geodb::GeoDatabase {
 public:
  FixedGeoDatabase(std::string name, geo::GeoPoint location)
      : name_(std::move(name)), location_(location) {}
  [[nodiscard]] std::optional<geodb::GeoRecord> lookup(net::Ipv4Address) const override {
    return geodb::GeoRecord{"Rome", "Lazio", "IT", location_, gazetteer::kInvalidCity};
  }
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

 private:
  std::string name_;
  geo::GeoPoint location_;
};

/// A database with no city-level record for any IP.
class EmptyGeoDatabase final : public geodb::GeoDatabase {
 public:
  [[nodiscard]] std::optional<geodb::GeoRecord> lookup(net::Ipv4Address) const override {
    return std::nullopt;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "empty"; }
};

std::vector<p2p::PeerSample> samples_in(std::uint8_t first_octet, std::size_t count) {
  std::vector<p2p::PeerSample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({net::Ipv4Address{first_octet, 0, 0, static_cast<std::uint8_t>(i)},
                   p2p::App::kKad});
  }
  return out;
}

bgp::RibSnapshot two_as_rib() {
  return bgp::RibSnapshot{{
      {net::Ipv4Prefix{net::Ipv4Address{10, 0, 0, 0}, 8}, {net::Asn{100}}},
      {net::Ipv4Prefix{net::Ipv4Address{20, 0, 0, 0}, 8}, {net::Asn{200}}},
  }};
}

TEST(DatasetBuilderEdge, EmptySampleSpan) {
  const geo::GeoPoint rome{41.9, 12.5};
  const FixedGeoDatabase primary{"a", rome};
  const FixedGeoDatabase secondary{"b", rome};
  const auto rib = two_as_rib();
  const bgp::IpToAsMapper mapper{rib};
  const DatasetBuilder builder{primary, secondary, mapper, {}};
  const auto dataset = builder.build({});
  EXPECT_TRUE(dataset.ases().empty());
  EXPECT_EQ(dataset.stats(), DatasetStats{}) << to_string(dataset.stats());
  EXPECT_EQ(dataset.find(net::Asn{100}), nullptr);
}

TEST(DatasetBuilderEdge, AllSamplesMissingGeo) {
  const geo::GeoPoint rome{41.9, 12.5};
  const FixedGeoDatabase primary{"a", rome};
  const EmptyGeoDatabase secondary;
  const auto rib = two_as_rib();
  const bgp::IpToAsMapper mapper{rib};
  const DatasetBuilder builder{primary, secondary, mapper, {}};
  const auto dataset = builder.build(samples_in(10, 50));
  EXPECT_TRUE(dataset.ases().empty());
  EXPECT_EQ(dataset.stats().raw_samples, 50u);
  EXPECT_EQ(dataset.stats().missing_geo, 50u);
  EXPECT_EQ(dataset.stats().final_peers, 0u);
}

TEST(DatasetBuilderEdge, AllSamplesUnmapped) {
  const geo::GeoPoint rome{41.9, 12.5};
  const FixedGeoDatabase primary{"a", rome};
  const FixedGeoDatabase secondary{"b", rome};
  const auto rib = two_as_rib();
  const bgp::IpToAsMapper mapper{rib};
  const DatasetBuilder builder{primary, secondary, mapper, {}};
  // 30.x.x.x is covered by neither RIB prefix.
  const auto dataset = builder.build(samples_in(30, 40));
  EXPECT_TRUE(dataset.ases().empty());
  EXPECT_EQ(dataset.stats().unmapped_as, 40u);
  EXPECT_EQ(dataset.stats().missing_geo, 0u);
}

TEST(DatasetBuilderEdge, AsExactlyAtMinPeersIsKept) {
  const geo::GeoPoint rome{41.9, 12.5};
  const FixedGeoDatabase primary{"a", rome};
  const FixedGeoDatabase secondary{"b", rome};
  const auto rib = two_as_rib();
  const bgp::IpToAsMapper mapper{rib};
  DatasetConfig config;
  config.min_peers_per_as = 5;
  const DatasetBuilder builder{primary, secondary, mapper, config};
  auto samples = samples_in(10, 5);  // AS100: exactly the minimum
  const auto below = samples_in(20, 4);  // AS200: one short
  samples.insert(samples.end(), below.begin(), below.end());
  const auto dataset = builder.build(samples);
  ASSERT_EQ(dataset.ases().size(), 1u);
  EXPECT_EQ(dataset.ases()[0].asn, net::Asn{100});
  EXPECT_EQ(dataset.ases()[0].peers.size(), 5u);
  EXPECT_EQ(dataset.stats().ases_below_min_peers, 1u);
  EXPECT_EQ(dataset.stats().peers_in_small_ases, 4u);
  EXPECT_EQ(dataset.stats().final_peers, 5u);
  EXPECT_EQ(dataset.stats().final_ases, 1u);
}

TEST(DatasetBuilderEdge, P90ErrorBoundaryEqualityIsKept) {
  // Both filters are strict '>': an AS whose p90 geo error equals the cap
  // exactly must survive, and one epsilon below the cap must drop it.
  const geo::GeoPoint rome{41.9, 12.5};
  const geo::GeoPoint offset = geo::destination(rome, 90.0, 50.0);
  const double error_km = geo::distance_km(rome, offset);
  const FixedGeoDatabase primary{"a", rome};
  const FixedGeoDatabase secondary{"b", offset};
  const auto rib = two_as_rib();
  const bgp::IpToAsMapper mapper{rib};

  DatasetConfig config;
  config.min_peers_per_as = 3;
  config.max_geo_error_km = error_km;  // per-IP filter passes on equality too
  config.max_p90_geo_error_km = error_km;
  const auto samples = samples_in(10, 8);
  const auto kept = DatasetBuilder{primary, secondary, mapper, config}.build(samples);
  ASSERT_EQ(kept.ases().size(), 1u);
  EXPECT_EQ(kept.stats().ases_above_p90_error, 0u);
  for (const auto& peer : kept.ases()[0].peers) {
    EXPECT_EQ(peer.geo_error_km, error_km);
  }

  config.max_p90_geo_error_km = std::nextafter(error_km, 0.0);
  const auto dropped = DatasetBuilder{primary, secondary, mapper, config}.build(samples);
  EXPECT_TRUE(dropped.ases().empty());
  EXPECT_EQ(dropped.stats().ases_above_p90_error, 1u);
  EXPECT_EQ(dropped.stats().final_peers, 0u);
}

TEST(DatasetBuilderEdge, EdgeCasesIdenticalWhenSharded) {
  // The edge paths (empty buckets, boundary equality) through the sharded
  // build at several thread counts.
  const geo::GeoPoint rome{41.9, 12.5};
  const FixedGeoDatabase primary{"a", rome};
  const FixedGeoDatabase secondary{"b", rome};
  const auto rib = two_as_rib();
  const bgp::IpToAsMapper mapper{rib};
  DatasetConfig config;
  config.min_peers_per_as = 5;
  const DatasetBuilder builder{primary, secondary, mapper, config};
  auto samples = samples_in(10, 5);
  const auto below = samples_in(20, 4);
  samples.insert(samples.end(), below.begin(), below.end());
  const auto serial = builder.build(samples, 1);
  for (const std::size_t threads : {2u, 4u, 0u}) {
    const auto parallel = builder.build(samples, threads);
    EXPECT_EQ(serial.stats(), parallel.stats())
        << diff_stats(serial.stats(), parallel.stats());
    ASSERT_EQ(parallel.ases().size(), serial.ases().size());
    for (std::size_t i = 0; i < serial.ases().size(); ++i) {
      EXPECT_EQ(serial.ases()[i].asn, parallel.ases()[i].asn);
      EXPECT_EQ(serial.ases()[i].peers.size(), parallel.ases()[i].peers.size());
    }
  }
}

// ---- Classification (§2, >95% rule) ----

TEST(Classifier, RecoversDesignedLevelMostly) {
  const auto& f = shared_fixture();
  const AsClassifier classifier{f.gaz};
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const auto& as : f.dataset.ases()) {
    const auto result = classifier.classify(as);
    const auto designed = f.eco.at(as.asn).level;
    ++total;
    if (result.level == designed) ++agree;
  }
  ASSERT_GT(total, 0u);
  // Geo noise and >95% strictness blur some boundaries; the bulk must agree.
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.5);
}

TEST(Classifier, CityLevelAsClassifiedAtMostState) {
  // A designed city-level AS must never be classified country or wider:
  // all its users sit in one metro (modulo geo error ≤ 80 km).
  const auto& f = shared_fixture();
  const AsClassifier classifier{f.gaz};
  for (const auto& as : f.dataset.ases()) {
    if (f.eco.at(as.asn).level != topology::AsLevel::kCity) continue;
    const auto result = classifier.classify(as);
    EXPECT_LE(static_cast<int>(result.level),
              static_cast<int>(topology::AsLevel::kCountry))
        << f.eco.at(as.asn).name;
  }
}

TEST(Classifier, DominantShareExceedsThresholdForNonGlobal) {
  const auto& f = shared_fixture();
  const AsClassifier classifier{f.gaz};
  for (const auto& as : f.dataset.ases()) {
    const auto result = classifier.classify(as);
    if (result.level != topology::AsLevel::kGlobal) {
      EXPECT_GT(result.dominant_share, 0.95);
      EXPECT_FALSE(result.dominant_region.empty());
    }
  }
}

TEST(Classifier, ThresholdValidation) {
  const auto& f = shared_fixture();
  EXPECT_THROW(AsClassifier(f.gaz, 0.4), std::invalid_argument);
  EXPECT_THROW(AsClassifier(f.gaz, 1.5), std::invalid_argument);
  EXPECT_NO_THROW(AsClassifier(f.gaz, 0.95));
}

TEST(Classifier, RejectsEmptyPeerSet) {
  const auto& f = shared_fixture();
  const AsClassifier classifier{f.gaz};
  AsPeerSet empty;
  EXPECT_THROW((void)classifier.classify(empty), std::invalid_argument);
}

TEST(Classifier, SyntheticSingleCityIsCityLevel) {
  const auto& f = shared_fixture();
  const AsClassifier classifier{f.gaz};
  AsPeerSet set;
  set.asn = net::Asn{64512};
  const auto rome = f.gaz.city(*f.gaz.find_by_name("Rome", "IT"));
  for (int i = 0; i < 100; ++i) {
    set.peers.push_back({net::Ipv4Address{static_cast<std::uint32_t>(i)}, p2p::App::kKad,
                         geo::destination(rome.location, i * 3.6, 5.0), 0.0});
  }
  const auto result = classifier.classify(set);
  EXPECT_EQ(result.level, topology::AsLevel::kCity);
  EXPECT_EQ(result.dominant_region, "Rome");
  EXPECT_EQ(result.continent, gazetteer::Continent::kEurope);
}

TEST(Classifier, SyntheticTwoCountriesIsContinentLevel) {
  const auto& f = shared_fixture();
  const AsClassifier classifier{f.gaz};
  AsPeerSet set;
  set.asn = net::Asn{64513};
  const auto rome = f.gaz.city(*f.gaz.find_by_name("Rome", "IT")).location;
  const auto paris = f.gaz.city(*f.gaz.find_by_name("Paris", "FR")).location;
  for (int i = 0; i < 50; ++i) {
    set.peers.push_back({net::Ipv4Address{static_cast<std::uint32_t>(i)}, p2p::App::kKad,
                         rome, 0.0});
    set.peers.push_back({net::Ipv4Address{static_cast<std::uint32_t>(1000 + i)},
                         p2p::App::kKad, paris, 0.0});
  }
  EXPECT_EQ(classifier.classify(set).level, topology::AsLevel::kContinent);
}

// ---- Footprint estimation (§3) ----

TEST(Footprint, EstimateProducesPeaksAndContour) {
  const auto& f = shared_fixture();
  const GeoFootprintEstimator estimator;
  const auto& as = *std::max_element(
      f.dataset.ases().begin(), f.dataset.ases().end(),
      [](const auto& a, const auto& b) { return a.peers.size() < b.peers.size(); });
  const auto footprint = estimator.estimate(as);
  EXPECT_EQ(footprint.sample_count, as.peers.size());
  EXPECT_DOUBLE_EQ(footprint.bandwidth_km, 40.0);
  EXPECT_FALSE(footprint.peaks.empty());
  EXPECT_FALSE(footprint.contour.partitions.empty());
  EXPECT_NEAR(footprint.grid.integral(), 1.0, 0.05);
}

TEST(Footprint, PeaksNearTruePopCities) {
  const auto& f = shared_fixture();
  const GeoFootprintEstimator estimator;
  const auto& as = f.dataset.ases()[0];
  const auto footprint = estimator.estimate(as);
  const auto& true_as = f.eco.at(as.asn);
  // The strongest peak must fall within 60 km of some true service PoP.
  ASSERT_FALSE(footprint.peaks.empty());
  double best = 1e18;
  for (const auto& pop : true_as.pops) {
    if (pop.transit_only) continue;
    best = std::min(best, geo::distance_km(footprint.peaks[0].location,
                                           f.gaz.city(pop.city).location));
  }
  EXPECT_LT(best, 60.0);
}

TEST(Footprint, BandwidthOverrideChangesResolution) {
  const auto& f = shared_fixture();
  const GeoFootprintEstimator estimator;
  const AsPeerSet* country_as = nullptr;
  for (const auto& as : f.dataset.ases()) {
    if (f.eco.at(as.asn).level == topology::AsLevel::kCountry &&
        f.eco.at(as.asn).service_pop_count() >= 4) {
      country_as = &as;
      break;
    }
  }
  ASSERT_NE(country_as, nullptr);
  const auto fine = estimator.estimate(*country_as, 10.0);
  const auto coarse = estimator.estimate(*country_as, 80.0);
  EXPECT_GE(fine.peaks.size(), coarse.peaks.size());
}

TEST(Footprint, AdaptiveBandwidthRespectsFloor) {
  const auto& f = shared_fixture();
  const GeoFootprintEstimator estimator;
  const auto& as = f.dataset.ases()[0];
  const double bw = estimator.adaptive_bandwidth_km(as, 40.0);
  EXPECT_GE(bw, 40.0);
  const auto errors = as.geo_errors();
  EXPECT_GE(bw, util::percentile(errors, 90.0));
}

// ---- PoP mapping (§4) ----

TEST(PopMapping, PopsAreSortedAndUniqueCities) {
  const auto& f = shared_fixture();
  const auto& as = f.dataset.ases()[0];
  const auto analysis = f.pipeline.analyze(as);
  std::set<gazetteer::CityId> seen;
  for (std::size_t i = 0; i < analysis.pops.pops.size(); ++i) {
    EXPECT_TRUE(seen.insert(analysis.pops.pops[i].city).second);
    if (i > 0) {
      EXPECT_GE(analysis.pops.pops[i - 1].score, analysis.pops.pops[i].score);
    }
  }
}

TEST(PopMapping, EqualScorePopsOrderedByCityId) {
  const auto& f = shared_fixture();
  const PopCityMapper mapper{f.gaz};
  const auto milan = f.gaz.find_by_name("Milan", "IT");
  const auto rome = f.gaz.find_by_name("Rome", "IT");
  ASSERT_TRUE(milan.has_value());
  ASSERT_TRUE(rome.has_value());
  // Two peaks with byte-identical scores mapping to two distinct cities.
  // Densities differ so only the score ties — the comparator must fall back
  // to CityId, not leave the order to the sort implementation.
  kde::Peak at_milan;
  at_milan.location = f.gaz.city(*milan).location;
  at_milan.density = 0.8;
  at_milan.score = 0.25;
  kde::Peak at_rome;
  at_rome.location = f.gaz.city(*rome).location;
  at_rome.density = 0.4;
  at_rome.score = 0.25;
  const auto map_peaks = [&](std::vector<kde::Peak> peaks) {
    AsFootprint footprint{kde::DensityGrid{geo::BoundingBox{40.0, 47.0, 7.0, 14.0}, 50.0},
                          kde::Footprint{}, std::move(peaks), 0, 30.0};
    return mapper.map(footprint);
  };
  const auto expected_first = std::min(*milan, *rome);
  const auto expected_second = std::max(*milan, *rome);
  for (const auto& pops :
       {map_peaks({at_milan, at_rome}), map_peaks({at_rome, at_milan})}) {
    ASSERT_EQ(pops.pops.size(), 2u);
    EXPECT_EQ(pops.pops[0].score, pops.pops[1].score);
    // Tie broken by CityId ascending, independent of peak arrival order.
    EXPECT_EQ(pops.pops[0].city, expected_first);
    EXPECT_EQ(pops.pops[1].city, expected_second);
  }
}

TEST(PopMapping, RecoversMajorityOfTruePops) {
  const auto& f = shared_fixture();
  std::size_t found = 0;
  std::size_t total = 0;
  for (const auto& as : f.dataset.ases()) {
    const auto pops = f.pipeline.pop_footprint(as, 40.0);
    const auto& true_as = f.eco.at(as.asn);
    for (const auto& pop : true_as.pops) {
      if (pop.transit_only || pop.customer_share < 0.05) continue;
      ++total;
      if (pops.has_city(pop.city)) ++found;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(total), 0.7);
}

TEST(PopMapping, ScoresTrackCustomerShares) {
  const auto& f = shared_fixture();
  // For a country-level AS with well-separated PoPs, inferred scores should
  // correlate with the true customer shares.
  for (const auto& as : f.dataset.ases()) {
    const auto& true_as = f.eco.at(as.asn);
    if (true_as.service_pop_count() < 3) continue;
    const auto pops = f.pipeline.pop_footprint(as, 40.0);
    if (pops.pops.size() < 2) continue;
    // Find the true share of the top inferred city; it should be among the
    // larger shares.
    double top_inferred_share = 0.0;
    double max_share = 0.0;
    for (const auto& pop : true_as.pops) {
      max_share = std::max(max_share, pop.customer_share);
      if (pop.city == pops.pops[0].city) top_inferred_share = pop.customer_share;
    }
    if (max_share > 0.0 && top_inferred_share > 0.0) {
      EXPECT_GT(top_inferred_share, 0.3 * max_share) << true_as.name;
      return;  // one solid AS checked is enough
    }
  }
}

TEST(PopMapping, DescribeFormatsLikePaper) {
  const auto& f = shared_fixture();
  const PopCityMapper mapper{f.gaz};
  const GeoFootprintEstimator estimator;
  const auto& as = f.dataset.ases()[0];
  const auto pops = mapper.map(estimator.estimate(as));
  const std::string text = mapper.describe(pops);
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), ']');
  if (!pops.pops.empty()) {
    EXPECT_NE(text.find("(."), std::string::npos) << text;
  }
}

TEST(PopMapping, UnmappedPeaksCountedNotListed) {
  const auto& f = shared_fixture();
  const PopCityMapper mapper{f.gaz};
  // Construct a footprint whose peak is in the middle of the ocean.
  AsPeerSet set;
  set.asn = net::Asn{64514};
  for (int i = 0; i < 2000; ++i) {
    set.peers.push_back({net::Ipv4Address{static_cast<std::uint32_t>(i)}, p2p::App::kKad,
                         geo::destination({30.0, -45.0}, i % 360, (i % 40) * 1.0), 0.0});
  }
  const GeoFootprintEstimator estimator;
  const auto pops = mapper.map(estimator.estimate(set));
  EXPECT_TRUE(pops.pops.empty());
  EXPECT_GT(pops.unmapped_peaks, 0u);
}

// ---- Pipeline facade ----

TEST(Pipeline, AnalyzeBundlesAllOutputs) {
  const auto& f = shared_fixture();
  const auto& as = f.dataset.ases()[0];
  const auto analysis = f.pipeline.analyze(as);
  EXPECT_EQ(analysis.asn, as.asn);
  EXPECT_FALSE(analysis.footprint.peaks.empty());
  EXPECT_GT(analysis.classification.dominant_share, 0.0);
}

TEST(Pipeline, PopFootprintMatchesAnalyze) {
  const auto& f = shared_fixture();
  const auto& as = f.dataset.ases()[0];
  const auto analysis = f.pipeline.analyze(as, 40.0);
  const auto pops = f.pipeline.pop_footprint(as, 40.0);
  ASSERT_EQ(analysis.pops.pops.size(), pops.pops.size());
  for (std::size_t i = 0; i < pops.pops.size(); ++i) {
    EXPECT_EQ(analysis.pops.pops[i].city, pops.pops[i].city);
  }
}

TEST(Pipeline, RefreshReusesExactlyWhatALinearScanOracleDoes) {
  // A small dataset (every fixture AS cut to 60 peers) keeps each trial's
  // re-analysis cheap.
  const auto& f = shared_fixture();
  std::vector<AsPeerSet> small;
  for (const auto& as : f.dataset.ases()) {
    const std::size_t keep = std::min<std::size_t>(as.peers.size(), 60);
    small.push_back(
        {as.asn, {as.peers.begin(), as.peers.begin() + static_cast<std::ptrdiff_t>(keep)}});
  }
  DatasetStats stats;
  stats.final_ases = small.size();
  const TargetDataset dataset{std::move(small), std::move(stats)};
  const auto ases = dataset.ases();
  ASSERT_GE(ases.size(), 4u);
  const std::vector<AsAnalysis> fresh = f.pipeline.analyze_all(ases);

  // Every dataset ASN plus ASNs the dataset does not hold: below, between
  // and above its own.
  std::vector<net::Asn> candidates{net::Asn{0}, net::Asn{UINT32_MAX}};
  for (const auto& as : ases) {
    candidates.push_back(as.asn);
    const net::Asn next{net::value_of(as.asn) + 1};
    if (dataset.find(next) == nullptr) candidates.push_back(next);
  }
  std::ranges::sort(candidates);

  // A `previous` entry is a copy marked with a sentinel no analysis
  // produces, so a reused slot is told apart from a re-analyzed one.
  constexpr std::size_t kSentinel = 987654321;
  const auto marked = [&](std::size_t i, net::Asn asn) {
    AsAnalysis copy = fresh[i];
    copy.asn = asn;
    copy.pops.unmapped_peaks = kSentinel;
    return copy;
  };
  util::Rng rng{19};
  for (int trial = 0; trial < 12; ++trial) {
    const double keep_previous = rng.uniform(0.2, 1.0);
    const double mark_changed = rng.uniform(0.0, 0.6);
    std::vector<AsAnalysis> previous;
    std::vector<net::Asn> changed;
    for (const net::Asn asn : candidates) {
      if (rng.bernoulli(keep_previous)) {
        const AsPeerSet* as = dataset.find(asn);
        previous.push_back(
            marked(as == nullptr ? 0 : static_cast<std::size_t>(as - ases.data()), asn));
      }
      if (rng.bernoulli(mark_changed)) changed.push_back(asn);
    }

    const auto refreshed = f.pipeline.refresh_analyses(dataset, previous, changed);
    ASSERT_EQ(refreshed.size(), ases.size());
    for (std::size_t i = 0; i < ases.size(); ++i) {
      const net::Asn asn = ases[i].asn;
      const bool reuse =
          std::ranges::any_of(previous, [&](const AsAnalysis& a) { return a.asn == asn; }) &&
          std::ranges::find(changed, asn) == changed.end();
      EXPECT_EQ(refreshed[i].pops.unmapped_peaks == kSentinel, reuse)
          << "trial " << trial << " as index " << i;
      EXPECT_TRUE(same_analysis(refreshed[i], reuse ? marked(i, asn) : fresh[i]))
          << "trial " << trial << " as index " << i;
    }
  }
}

// ---- Multi-bandwidth refinement (§5 future work) ----

TEST(MultiBandwidth, NeverLosesTopPop) {
  const auto& f = shared_fixture();
  const GeoFootprintEstimator estimator;
  const MultiBandwidthRefiner refiner{f.gaz, estimator};
  const auto& as = f.dataset.ases()[0];
  const auto coarse = f.pipeline.pop_footprint(as, 40.0);
  const auto refined = refiner.refine(as);
  ASSERT_FALSE(coarse.pops.empty());
  ASSERT_FALSE(refined.pops.pops.empty());
  // The refined list must still contain (or split near) the top coarse PoP.
  const auto top_city = f.gaz.city(coarse.pops[0].city).location;
  double best = 1e18;
  for (const auto& pop : refined.pops.pops) {
    best = std::min(best, geo::distance_km(top_city, f.gaz.city(pop.city).location));
  }
  EXPECT_LT(best, 45.0);
}

TEST(MultiBandwidth, ScoreMassConserved) {
  const auto& f = shared_fixture();
  const GeoFootprintEstimator estimator;
  const MultiBandwidthRefiner refiner{f.gaz, estimator};
  const auto& as = f.dataset.ases()[0];
  const auto coarse = f.pipeline.pop_footprint(as, 40.0);
  const auto refined = refiner.refine(as);
  double coarse_mass = 0.0;
  for (const auto& pop : coarse.pops.size() ? coarse.pops : refined.pops.pops) {
    coarse_mass += pop.score;
  }
  double refined_mass = 0.0;
  for (const auto& pop : refined.pops.pops) refined_mass += pop.score;
  EXPECT_NEAR(refined_mass, coarse_mass, 0.25 * coarse_mass + 1e-9);
}

TEST(MultiBandwidth, SplitsMergedNeighbours) {
  // Synthetic AS with two PoPs 60 km apart: one coarse (80 km) peak, split
  // by the fine pass.
  const auto& f = shared_fixture();
  AsPeerSet set;
  set.asn = net::Asn{64515};
  const auto milan = f.gaz.city(*f.gaz.find_by_name("Milan", "IT")).location;
  const auto novara = f.gaz.city(*f.gaz.find_by_name("Novara", "IT")).location;
  util::Rng rng{5};
  for (int i = 0; i < 1500; ++i) {
    const auto& center = i % 2 == 0 ? milan : novara;
    set.peers.push_back({net::Ipv4Address{static_cast<std::uint32_t>(i)}, p2p::App::kKad,
                         geo::destination(center, rng.uniform(0.0, 360.0),
                                          rng.uniform(0.0, 6.0)),
                         0.0});
  }
  const GeoFootprintEstimator estimator;
  MultiBandwidthConfig config;
  config.coarse_bandwidth_km = 80.0;
  config.fine_bandwidth_km = 12.0;
  const MultiBandwidthRefiner refiner{f.gaz, estimator, config};
  const auto coarse = PopCityMapper{f.gaz}.map(estimator.estimate(set, 80.0));
  const auto refined = refiner.refine(set);
  EXPECT_GE(refined.pops.pops.size(), coarse.pops.size());
  EXPECT_GE(refined.splits, 1u);
}

}  // namespace
}  // namespace eyeball::core
