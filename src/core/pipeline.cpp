#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace eyeball::core {

EyeballPipeline::EyeballPipeline(const gazetteer::Gazetteer& gazetteer,
                                 const geodb::GeoDatabase& primary,
                                 const geodb::GeoDatabase& secondary,
                                 const bgp::IpToAsMapper& mapper, PipelineConfig config)
    : gaz_(gazetteer),
      builder_(primary, secondary, mapper, config.dataset),
      classifier_(gazetteer, config.classify_threshold),
      estimator_(config.footprint),
      mapper_(gazetteer),
      config_(config) {}

TargetDataset EyeballPipeline::build_dataset(
    std::span<const p2p::PeerSample> samples) const {
  return builder_.build(samples);
}

TargetDataset EyeballPipeline::build_dataset(std::span<const p2p::PeerSample> samples,
                                             std::size_t threads) const {
  return builder_.build(samples, threads);
}

StreamingDatasetBuilder EyeballPipeline::streaming_builder() const {
  return builder_.streaming();
}

std::vector<AsAnalysis> EyeballPipeline::refresh_analyses(
    const TargetDataset& dataset, std::span<const AsAnalysis> previous,
    std::span<const net::Asn> changed) const {
  EYEBALL_DCHECK(std::ranges::is_sorted(previous, {}, &AsAnalysis::asn),
                 "refresh_analyses: previous analyses not ASN-ascending");
  EYEBALL_DCHECK(std::ranges::is_sorted(changed),
                 "refresh_analyses: changed ASNs not ascending");
  // One forward merge walk: dataset, previous and changed are all
  // ASN-ascending, so each cursor only ever moves forward.
  const auto ases = dataset.ases();
  std::vector<std::optional<AsAnalysis>> slots(ases.size());
  auto prev = previous.begin();
  auto dirty = changed.begin();
  for (std::size_t i = 0; i < ases.size(); ++i) {
    const net::Asn asn = ases[i].asn;
    while (prev != previous.end() && prev->asn < asn) ++prev;
    while (dirty != changed.end() && *dirty < asn) ++dirty;
    const bool reusable = prev != previous.end() && prev->asn == asn;
    if (reusable && (dirty == changed.end() || *dirty != asn)) slots[i] = *prev;
  }
  return fill_slots(ases, std::move(slots), config_.threads);
}

std::vector<AsAnalysis> EyeballPipeline::fill_slots(
    std::span<const AsPeerSet> ases, std::vector<std::optional<AsAnalysis>> slots,
    std::size_t threads) const {
  // Empty slots are analyzed largest peer set first; each AS writes just
  // its own slot, so the output is the same at any thread count.
  std::vector<std::size_t> empty;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]) empty.push_back(i);
  }
  util::for_each_largest_first(
      std::move(empty), [&](std::size_t i) { return ases[i].peers.size(); },
      [&](std::size_t i) { slots[i] = analyze(ases[i]); }, threads);
  std::vector<AsAnalysis> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

AsAnalysis EyeballPipeline::analyze(const AsPeerSet& peers) const {
  return analyze(peers, config_.footprint.kde.bandwidth_km);
}

AsAnalysis EyeballPipeline::analyze(const AsPeerSet& peers, double bandwidth_km) const {
  AsAnalysis out{peers.asn, classifier_.classify(peers),
                 estimator_.estimate(peers, bandwidth_km), PopFootprint{}};
  out.pops = mapper_.map(out.footprint);
  return out;
}

PopFootprint EyeballPipeline::pop_footprint(const AsPeerSet& peers,
                                            double bandwidth_km) const {
  return mapper_.map(estimator_.estimate(peers, bandwidth_km));
}

std::vector<AsAnalysis> EyeballPipeline::analyze_all(
    std::span<const AsPeerSet> ases) const {
  return analyze_all(ases, config_.threads);
}

std::vector<AsAnalysis> EyeballPipeline::analyze_all(std::span<const AsPeerSet> ases,
                                                     std::size_t threads) const {
  return fill_slots(ases, std::vector<std::optional<AsAnalysis>>(ases.size()), threads);
}

}  // namespace eyeball::core
