#include "core/multi_bandwidth.hpp"

#include <algorithm>

namespace eyeball::core {

MultiBandwidthRefiner::MultiBandwidthRefiner(const gazetteer::Gazetteer& gazetteer,
                                             const GeoFootprintEstimator& estimator,
                                             MultiBandwidthConfig config)
    : gaz_(gazetteer), estimator_(estimator), config_(config) {}

RefinedPops MultiBandwidthRefiner::refine(const AsPeerSet& peers) const {
  const PopCityMapper mapper{gaz_};
  const auto coarse = mapper.map(estimator_.estimate(peers, config_.coarse_bandwidth_km));
  const auto fine = mapper.map(estimator_.estimate(peers, config_.fine_bandwidth_km));

  RefinedPops out;
  out.pops.unmapped_peaks = coarse.unmapped_peaks;
  for (const auto& pop : coarse.pops) {
    // Fine PoPs whose peak lies within the coarse kernel radius of this
    // coarse PoP and that carry a meaningful share of its mass.
    std::vector<PopEntry> candidates;
    for (const auto& fine_pop : fine.pops) {
      const double d = geo::distance_km(pop.peak_location, fine_pop.peak_location);
      if (d <= config_.coarse_bandwidth_km &&
          fine_pop.score >= config_.min_split_share * pop.score) {
        candidates.push_back(fine_pop);
      }
    }
    const auto distinct_cities =
        std::count_if(candidates.begin(), candidates.end(),
                      [&](const PopEntry& e) { return e.city != pop.city; });
    if (candidates.size() >= 2 && distinct_cities > 0) {
      ++out.splits;
      // Replace the merged coarse PoP with the fine constituents, rescaled
      // so the coarse mass is preserved.
      double fine_total = 0.0;
      for (const auto& c : candidates) fine_total += c.score;
      for (auto c : candidates) {
        c.score = pop.score * (c.score / fine_total);
        out.pops.pops.push_back(c);
      }
    } else {
      out.pops.pops.push_back(pop);
    }
  }

  // Merge duplicates created by splits landing on an existing city.
  std::sort(out.pops.pops.begin(), out.pops.pops.end(),
            [](const PopEntry& a, const PopEntry& b) { return a.city < b.city; });
  std::vector<PopEntry> merged;
  for (const auto& pop : out.pops.pops) {
    if (!merged.empty() && merged.back().city == pop.city) {
      merged.back().score += pop.score;
      if (pop.peak_density > merged.back().peak_density) {
        merged.back().peak_density = pop.peak_density;
        merged.back().peak_location = pop.peak_location;
      }
    } else {
      merged.push_back(pop);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const PopEntry& a, const PopEntry& b) { return a.score > b.score; });
  out.pops.pops = std::move(merged);
  return out;
}

}  // namespace eyeball::core
