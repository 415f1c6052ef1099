// End-to-end facade: the full method of the paper in one object.
//
//   EyeballPipeline pipeline{gazetteer, primary_db, secondary_db, mapper};
//   auto dataset = pipeline.build_dataset(crawl.samples);
//   for (const auto& as : dataset.ases()) {
//     auto analysis = pipeline.analyze(as);
//     // analysis.classification, analysis.footprint, analysis.pops
//   }
#pragma once

#include <optional>
#include <vector>

#include "core/classifier.hpp"
#include "core/dataset.hpp"
#include "core/footprint.hpp"
#include "core/pop_mapper.hpp"
#include "core/streaming_dataset.hpp"

namespace eyeball::core {

struct PipelineConfig {
  DatasetConfig dataset{};
  FootprintConfig footprint{};
  double classify_threshold = 0.95;
  /// Per-AS fan-out concurrency for analyze_all() and refresh_analyses():
  /// this many workers on util::ThreadPool::shared() take ASes one at a
  /// time, largest peer set first.  1 = serial, 0 = one worker per hardware
  /// thread.  Results are collected in AS order and are bit-identical to
  /// the serial path regardless of the setting.
  std::size_t threads = 1;
};

/// Everything the method infers about one eyeball AS.
struct AsAnalysis {
  net::Asn asn{};
  Classification classification;
  AsFootprint footprint;
  PopFootprint pops;
};

class EyeballPipeline {
 public:
  EyeballPipeline(const gazetteer::Gazetteer& gazetteer,
                  const geodb::GeoDatabase& primary, const geodb::GeoDatabase& secondary,
                  const bgp::IpToAsMapper& mapper, PipelineConfig config = {});

  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const gazetteer::Gazetteer& gazetteer() const noexcept { return gaz_; }

  /// §2 conditioning, sharded at `DatasetConfig::threads` (see
  /// DatasetBuilder::build — byte-identical at any thread count).
  [[nodiscard]] TargetDataset build_dataset(std::span<const p2p::PeerSample> samples) const;
  /// Same with an explicit shard count (benchmark threads axis).
  [[nodiscard]] TargetDataset build_dataset(std::span<const p2p::PeerSample> samples,
                                            std::size_t threads) const;

  /// Streaming §2 conditioning over the pipeline's databases/mapper/config
  /// for longitudinal crawls: ingest windows as they arrive, finalize() for
  /// a snapshot byte-identical to build_dataset over the deduplicated
  /// window concatenation (see core/streaming_dataset.hpp).
  [[nodiscard]] StreamingDatasetBuilder streaming_builder() const;

  /// Incremental re-analysis after an ingest/finalize cycle: re-analyzes
  /// only the ASes named in `changed` (StreamingDatasetBuilder::
  /// touched_asns()) plus any AS absent from `previous`, and reuses the
  /// ASN-matched `previous` entry for the rest.  `previous` and `changed`
  /// must be ASN-ascending, like the dataset (DCHECKed); both may name ASNs
  /// the dataset does not hold, which are ignored.  Entry i corresponds to
  /// dataset.ases()[i]; the result equals analyze_all(dataset.ases()) as
  /// long as `previous` came from the same pipeline configuration.
  [[nodiscard]] std::vector<AsAnalysis> refresh_analyses(
      const TargetDataset& dataset, std::span<const AsAnalysis> previous,
      std::span<const net::Asn> changed) const;

  /// Classification + footprint + PoP footprint at the configured bandwidth.
  [[nodiscard]] AsAnalysis analyze(const AsPeerSet& peers) const;
  /// Same with an explicit bandwidth (sweeps).
  [[nodiscard]] AsAnalysis analyze(const AsPeerSet& peers, double bandwidth_km) const;

  /// Analyzes every AS, fanned out over the shared thread pool at the
  /// configured `PipelineConfig::threads`.  The result vector is in input
  /// order; entry i is exactly what analyze(ases[i]) returns on one thread.
  [[nodiscard]] std::vector<AsAnalysis> analyze_all(
      std::span<const AsPeerSet> ases) const;
  /// Same with an explicit concurrency (benchmark threads axis).
  [[nodiscard]] std::vector<AsAnalysis> analyze_all(std::span<const AsPeerSet> ases,
                                                    std::size_t threads) const;

  /// PoP footprint only (skips classification; cheaper inner loop for the
  /// validation benches).
  [[nodiscard]] PopFootprint pop_footprint(const AsPeerSet& peers,
                                           double bandwidth_km) const;

 private:
  /// Analyzes ases[i] into every empty slot i on `threads` workers (the
  /// shared fan-out of analyze_all and refresh_analyses), then unwraps the
  /// slots in order.
  [[nodiscard]] std::vector<AsAnalysis> fill_slots(
      std::span<const AsPeerSet> ases, std::vector<std::optional<AsAnalysis>> slots,
      std::size_t threads) const;

  const gazetteer::Gazetteer& gaz_;
  DatasetBuilder builder_;
  AsClassifier classifier_;
  GeoFootprintEstimator estimator_;
  PopCityMapper mapper_;
  PipelineConfig config_;
};

}  // namespace eyeball::core
