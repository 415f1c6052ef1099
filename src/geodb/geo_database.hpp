// IP geo-location database interface.
//
// The paper consumes two independent commercial databases (MaxMind GeoIP
// City and IP2Location DB-15), each mapping an IP to a
// (city, state, country, longitude, latitude) record at zip-code
// resolution, and uses the distance between their answers as a per-IP
// error estimate.  This interface reproduces that contract.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "gazetteer/types.hpp"
#include "geo/point.hpp"
#include "net/ipv4.hpp"

namespace eyeball::geodb {

struct GeoRecord {
  std::string_view city;
  std::string_view region;
  std::string_view country_code;
  /// Zip-centroid coordinates (the paper: "the resolution of the provided
  /// coordinates is zip codes in each city").
  geo::GeoPoint location;
  /// Gazetteer id of the city the name fields refer to.  The level
  /// classifier aggregates on this, mirroring the paper's use of the
  /// databases' (city, state, country) fields rather than re-deriving
  /// geography from raw coordinates.
  gazetteer::CityId city_id = gazetteer::kInvalidCity;
};

class GeoDatabase {
 public:
  virtual ~GeoDatabase() = default;

  /// City-level record for `ip`, or nullopt when the database has no
  /// city-level entry (the paper drops ~2.4 M peers for this reason).
  ///
  /// Thread-safety contract: implementations must be safe for concurrent
  /// `lookup` calls from multiple threads on the same const instance, and
  /// repeated lookups of the same IP must return the same record — the
  /// sharded dataset build fans lookups out over a thread pool.  Both
  /// shipped implementations satisfy this: lookups read only immutable
  /// state (tries, tables, per-IP-seeded RNG streams).
  [[nodiscard]] virtual std::optional<GeoRecord> lookup(net::Ipv4Address ip) const = 0;

  /// Batched lookup: `out[i] = lookup(ips[i])` for every i.  The base
  /// implementation is exactly that loop; implementations may override to
  /// amortize per-call costs over the batch, but results must stay
  /// element-for-element identical to the scalar path (the conditioning
  /// arenas fan whole sample blocks through this and the byte-identity
  /// tests compare against per-IP lookups).  Same thread-safety contract as
  /// lookup().  `out.size()` must be >= `ips.size()`.
  virtual void lookup_batch(std::span<const net::Ipv4Address> ips,
                            std::span<std::optional<GeoRecord>> out) const {
    for (std::size_t i = 0; i < ips.size(); ++i) out[i] = lookup(ips[i]);
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// Distance between two databases' answers for one IP — the paper's §2
/// first-order error proxy.  nullopt when either database has no record.
[[nodiscard]] std::optional<double> geo_error_km(const GeoDatabase& primary,
                                                 const GeoDatabase& secondary,
                                                 net::Ipv4Address ip);

}  // namespace eyeball::geodb
