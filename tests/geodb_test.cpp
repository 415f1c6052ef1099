#include <gtest/gtest.h>

#include <vector>

#include "gazetteer/gazetteer.hpp"
#include "geodb/synthetic_db.hpp"
#include "topology/generator.hpp"
#include "topology/ground_truth.hpp"
#include "util/stats.hpp"

namespace eyeball::geodb {
namespace {

struct Fixture {
  gazetteer::Gazetteer gaz = gazetteer::Gazetteer::builtin();
  topology::AsEcosystem eco = [this] {
    topology::EcosystemConfig config;
    config.seed = 13;
    return topology::generate_ecosystem(gaz, config.scaled(0.05));
  }();
  topology::GroundTruthLocator truth{eco, gaz};

  /// A batch of allocated IPs spread over eyeball prefixes.
  std::vector<net::Ipv4Address> sample_ips(std::size_t want) const {
    std::vector<net::Ipv4Address> out;
    for (const auto& as : eco.ases()) {
      if (as.role != topology::AsRole::kEyeball) continue;
      for (const auto& pop : as.pops) {
        for (const auto& prefix : pop.prefixes) {
          const auto step = std::max<std::uint64_t>(1, prefix.size() / 8);
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
};

const Fixture& fixture() {
  static const Fixture instance;
  return instance;
}

TEST(ErrorModel, PerfectHasNoNoise) {
  const auto model = ErrorModel::perfect();
  EXPECT_DOUBLE_EQ(model.exact, 1.0);
  EXPECT_DOUBLE_EQ(model.missing, 0.0);
}

TEST(SyntheticGeoDatabase, RejectsBadMixture) {
  const auto& f = fixture();
  ErrorModel bad;
  bad.exact = 0.5;
  bad.wrong_zip = 0.1;
  bad.wrong_city = 0.1;
  bad.far = 0.1;  // sums to 0.8
  EXPECT_THROW(SyntheticGeoDatabase("x", f.truth, bad, 1), std::invalid_argument);
  ErrorModel bad_missing;
  bad_missing.missing = 1.5;
  EXPECT_THROW(SyntheticGeoDatabase("x", f.truth, bad_missing, 1), std::invalid_argument);
}

TEST(SyntheticGeoDatabase, PerfectModelReturnsGroundTruth) {
  const auto& f = fixture();
  const SyntheticGeoDatabase db{"oracle", f.truth, ErrorModel::perfect(), 5};
  for (const auto ip : f.sample_ips(500)) {
    const auto record = db.lookup(ip);
    const auto truth = f.truth.locate(ip);
    ASSERT_TRUE(record && truth);
    EXPECT_EQ(record->location, truth->location);
    EXPECT_EQ(record->city, f.gaz.city(truth->city).name);
    EXPECT_EQ(record->country_code, f.gaz.city(truth->city).country_code);
  }
}

TEST(SyntheticGeoDatabase, UnallocatedIpHasNoRecord) {
  const auto& f = fixture();
  const SyntheticGeoDatabase db{"db", f.truth, {}, 5};
  EXPECT_FALSE(db.lookup(net::Ipv4Address{223, 255, 255, 254}));
}

TEST(SyntheticGeoDatabase, LookupsAreDeterministic) {
  const auto& f = fixture();
  const SyntheticGeoDatabase db{"db", f.truth, {}, 5};
  for (const auto ip : f.sample_ips(200)) {
    const auto a = db.lookup(ip);
    const auto b = db.lookup(ip);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->location, b->location);
    }
  }
}

TEST(SyntheticGeoDatabase, MissingRateRoughlyMatchesConfig) {
  const auto& f = fixture();
  ErrorModel model;
  model.missing = 0.2;
  const SyntheticGeoDatabase db{"db", f.truth, model, 7};
  const auto ips = f.sample_ips(3000);
  std::size_t missing = 0;
  for (const auto ip : ips) {
    if (!db.lookup(ip)) ++missing;
  }
  EXPECT_NEAR(static_cast<double>(missing) / static_cast<double>(ips.size()), 0.2, 0.04);
}

TEST(SyntheticGeoDatabase, ErrorMixtureProducesExpectedDistances) {
  const auto& f = fixture();
  ErrorModel model;  // defaults: 78% exact
  model.missing = 0.0;
  const SyntheticGeoDatabase db{"db", f.truth, model, 11};
  const auto ips = f.sample_ips(4000);
  std::size_t exact = 0;
  std::size_t near = 0;   // same city
  std::size_t wrong = 0;  // > 60 km off
  for (const auto ip : ips) {
    const auto record = db.lookup(ip);
    const auto truth = f.truth.locate(ip);
    ASSERT_TRUE(record && truth);
    const double d = geo::distance_km(record->location, truth->location);
    if (d < 0.001) {
      ++exact;
    } else if (d < 60.0) {
      ++near;
    } else {
      ++wrong;
    }
  }
  const auto total = static_cast<double>(ips.size());
  EXPECT_NEAR(static_cast<double>(exact) / total, model.exact, 0.05);
  EXPECT_GT(static_cast<double>(near) / total, 0.05);          // wrong-zip mass
  EXPECT_NEAR(static_cast<double>(wrong) / total, 0.08, 0.05);  // wrong-city + far mass
}

TEST(SyntheticGeoDatabase, TwoDatabasesDisagreeIndependently) {
  const auto& f = fixture();
  ErrorModel model;
  model.missing = 0.0;
  const SyntheticGeoDatabase a{"maxmind-like", f.truth, model, 100};
  const SyntheticGeoDatabase b{"ip2location-like", f.truth, model, 200};
  const auto ips = f.sample_ips(2000);
  std::size_t agree = 0;
  for (const auto ip : ips) {
    const auto ra = a.lookup(ip);
    const auto rb = b.lookup(ip);
    ASSERT_TRUE(ra && rb);
    if (ra->location == rb->location) ++agree;
  }
  // Both exact => agree (~0.78^2 = 61%); independent errors rarely agree.
  const double agreement = static_cast<double>(agree) / static_cast<double>(ips.size());
  EXPECT_NEAR(agreement, model.exact * model.exact, 0.06);
}

TEST(GeoErrorKm, ZeroWhenBothExact) {
  const auto& f = fixture();
  const SyntheticGeoDatabase a{"a", f.truth, ErrorModel::perfect(), 1};
  const SyntheticGeoDatabase b{"b", f.truth, ErrorModel::perfect(), 2};
  for (const auto ip : f.sample_ips(100)) {
    const auto error = geo_error_km(a, b, ip);
    ASSERT_TRUE(error);
    EXPECT_DOUBLE_EQ(*error, 0.0);
  }
}

TEST(GeoErrorKm, NulloptWhenEitherMissing) {
  const auto& f = fixture();
  ErrorModel always_missing;
  always_missing.missing = 1.0;
  const SyntheticGeoDatabase a{"a", f.truth, ErrorModel::perfect(), 1};
  const SyntheticGeoDatabase b{"b", f.truth, always_missing, 2};
  const auto ips = f.sample_ips(10);
  ASSERT_FALSE(ips.empty());
  EXPECT_FALSE(geo_error_km(a, b, ips[0]));
  EXPECT_FALSE(geo_error_km(b, a, ips[0]));
}

TEST(GeoErrorKm, ErrorIsUsefulProxyForTrueError) {
  // The paper's premise: inter-database distance correlates with the
  // primary database's true error.  Check that filtering on the proxy
  // reduces the true error of what remains.
  const auto& f = fixture();
  ErrorModel model;
  model.missing = 0.0;
  const SyntheticGeoDatabase a{"a", f.truth, model, 100};
  const SyntheticGeoDatabase b{"b", f.truth, model, 200};
  util::RunningStats kept_error;
  util::RunningStats all_error;
  for (const auto ip : f.sample_ips(4000)) {
    const auto ra = a.lookup(ip);
    const auto truth = f.truth.locate(ip);
    ASSERT_TRUE(ra && truth);
    const double true_error = geo::distance_km(ra->location, truth->location);
    all_error.add(true_error);
    const auto proxy = geo_error_km(a, b, ip);
    ASSERT_TRUE(proxy);
    if (*proxy <= 80.0) kept_error.add(true_error);
  }
  EXPECT_LT(kept_error.mean(), all_error.mean());
}

TEST(SyntheticGeoDatabase, NameIsExposed) {
  const auto& f = fixture();
  const SyntheticGeoDatabase db{"GeoIP-City-like", f.truth, {}, 1};
  EXPECT_EQ(db.name(), "GeoIP-City-like");
}

}  // namespace
}  // namespace eyeball::geodb
