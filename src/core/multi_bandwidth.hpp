// Multi-bandwidth PoP refinement — the paper's §5 future-work idea,
// implemented: "use different kernel bandwidth and determine these PoPs
// based on the relative distance and user density of associated peaks with
// different bandwidths".
//
// A coarse bandwidth yields reliable but merged PoPs (nearby PoPs collapse
// into one peak); a fine bandwidth separates them but admits noise.  The
// refiner keeps the coarse peak set as the trusted skeleton and splits a
// coarse PoP only when the fine pass finds two or more sufficiently strong
// peaks, mapping to distinct cities, inside the coarse kernel's radius.
#pragma once

#include "core/footprint.hpp"
#include "core/pop_mapper.hpp"

namespace eyeball::core {

struct MultiBandwidthConfig {
  double coarse_bandwidth_km = 40.0;
  double fine_bandwidth_km = 15.0;
  /// A fine peak participates in a split only if its score is at least
  /// this fraction of the coarse peak's score.
  double min_split_share = 0.2;
};

struct RefinedPops {
  PopFootprint pops;
  /// Number of coarse PoPs that were split into multiple fine PoPs.
  std::size_t splits = 0;
};

class MultiBandwidthRefiner {
 public:
  MultiBandwidthRefiner(const gazetteer::Gazetteer& gazetteer,
                        const GeoFootprintEstimator& estimator,
                        MultiBandwidthConfig config = {});

  [[nodiscard]] RefinedPops refine(const AsPeerSet& peers) const;

 private:
  const gazetteer::Gazetteer& gaz_;
  const GeoFootprintEstimator& estimator_;
  MultiBandwidthConfig config_;
};

}  // namespace eyeball::core
