#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <string>
#include <utility>

#include "core/artifact.hpp"
#include "util/check.hpp"

namespace eyeball::serve {

std::string_view to_string(ServiceHealth health) noexcept {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegradedDurability:
      return "degraded-durability";
    case ServiceHealth::kReadOnly:
      return "read-only";
  }
  return "unknown";
}

ServingSnapshot::ServingSnapshot(std::uint64_t epoch, core::DatasetStats stats,
                                 std::vector<core::AsAnalysis> analyses)
    : epoch_(epoch), stats_(std::move(stats)), analyses_(std::move(analyses)) {
  EYEBALL_DCHECK(std::ranges::adjacent_find(analyses_, std::ranges::greater_equal{},
                                            &core::AsAnalysis::asn) == analyses_.end(),
                 "ServingSnapshot: analyses not strictly ASN-ascending");
}

const core::AsAnalysis* ServingSnapshot::find(net::Asn asn) const noexcept {
  const auto it = std::ranges::lower_bound(analyses_, asn, {}, &core::AsAnalysis::asn);
  return it == analyses_.end() || it->asn != asn ? nullptr : &*it;
}

EyeballService::EyeballService(const core::EyeballPipeline& pipeline, ServiceConfig config)
    : pipeline_(pipeline),
      config_(std::move(config)),
      builder_(pipeline.streaming_builder()) {}

void EyeballService::ingest(std::span<const p2p::PeerSample> window) {
  const util::SerialSection writer{writer_serial_};
  builder_.ingest(window);
}

std::shared_ptr<const ServingSnapshot> EyeballService::publish() {
  const util::SerialSection writer{writer_serial_};
  // Touched set must be read BEFORE finalize(): finalize clears it.
  return publish_from(builder_.touched_asns(), /*persist=*/true);
}

util::Status EyeballService::restore(const std::string& dir,
                                     core::SnapshotRestoreInfo* info) {
  const util::SerialSection writer{writer_serial_};
  if (util::Status status = builder_.restore_snapshot(dir, filesystem(), info);
      !status.ok()) {
    // Health is deliberately unchanged: a failed restore leaves both the
    // serving surface and the builder exactly as they were.
    return status;
  }
  // The restored touched-set is relative to the snapshot's own history, not
  // to whatever this service last published — republish from scratch.
  // Invalidating own_epoch_ makes publish_from ignore the current epoch's
  // analyses, here and in every publish until one succeeds.
  own_epoch_ = 0;
  if (publish_from({}, /*persist=*/false) == nullptr) return last_publish_status_;
  return util::Status{};
}

util::Status EyeballService::restore_from_artifact(const std::string& path) {
  const util::SerialSection writer{writer_serial_};
  util::FileSystem& fs = filesystem();
  const core::PipelineConfig& config = pipeline_.config();
  core::DatasetStats stats;
  std::vector<core::AsAnalysis> analyses;
  // The view (and its mapping) lives only inside this decode.
  const util::Status status = [&]() -> util::Status {
    core::ArtifactView view;
    if (util::Status opened = core::ArtifactView::open(path, fs, view); !opened.ok()) {
      return opened;
    }
    // Same refusal the snapshot codec makes: an artifact produced under a
    // different result-affecting configuration must not serve as if it
    // were this pipeline's output.
    if (view.config_fingerprint() !=
        core::SnapshotCodec::config_fingerprint(config.dataset)) {
      return util::Status::config_mismatch(
          "artifact '" + path + "' was produced under a different dataset "
          "configuration than this pipeline's");
    }
    // This pipeline's estimator never builds a grid above its cell budget,
    // so materialize refuses one before allocating it.
    if (util::Status decoded =
            view.materialize(config.footprint.kde.max_cells, analyses);
        !decoded.ok()) {
      return decoded.with_context("artifact '" + path + "'");
    }
    // The fingerprint covers only DatasetConfig, but every analysis records
    // the KDE bandwidth it was made at: one made at another bandwidth is
    // not this pipeline's answer.
    const double bandwidth_km = config.footprint.kde.bandwidth_km;
    for (const core::AsAnalysis& analysis : analyses) {
      if (std::bit_cast<std::uint64_t>(analysis.footprint.bandwidth_km) !=
          std::bit_cast<std::uint64_t>(bandwidth_km)) {
        return util::Status::config_mismatch(
            "artifact '" + path + "' holds AS " +
            std::to_string(net::value_of(analysis.asn)) + " analyzed at a " +
            std::to_string(analysis.footprint.bandwidth_km) +
            " km KDE bandwidth, this pipeline's is " + std::to_string(bandwidth_km) +
            " km");
      }
    }
    stats = view.stats();
    return util::Status{};
  }();
  if (status.code() == util::StatusCode::kCorruption) {
    // A damaged image must not ambush every future restore: move it aside
    // with its verdict, like a corrupt snapshot generation.  Best-effort —
    // the typed refusal is the load-bearing part.
    static_cast<void>(util::quarantine_file(fs, path, status));
  }
  if (!status.ok()) return status;
  current_.store(std::make_shared<const ServingSnapshot>(
      this->epoch() + 1, std::move(stats), std::move(analyses)));
  health_.transition(ServiceHealth::kHealthy, util::Status{});
  return util::Status{};
}

std::shared_ptr<const ServingSnapshot> EyeballService::publish_from(
    std::span<const net::Asn> changed, bool persist) {
  // ---- Exception firewall.  finalize/analysis may throw (bad_alloc, a
  // bug surfacing as a logic_error); on a long-lived server that must
  // become a typed value, not an unwound writer thread.  The builder holds
  // no invariant across the publish boundary that a throw can break:
  // finalize() is non-destructive (the touched set it clears is no longer
  // needed once a trip invalidates own_epoch_ below), so the service keeps
  // ingesting and the previous epoch keeps serving.
  std::unique_ptr<const core::TargetDataset> dataset;
  std::shared_ptr<const ServingSnapshot> next;
  try {
    dataset =
        std::make_unique<const core::TargetDataset>(builder_.finalize(config_.threads));
    // After finalize, before analysis: the window where a throw strands the
    // already-cleared touched set.
    if (config_.publish_fault_hook) config_.publish_fault_hook();
    // The current epoch stays pinned by this local shared_ptr, so handing
    // its analyses to refresh_analyses is safe even though readers may
    // concurrently drop their own references.  Only analyses this writer
    // built are reusable; anything else means a full re-analysis (an empty
    // `previous`), with an identical result.
    std::shared_ptr<const ServingSnapshot> previous = current_.load();
    const std::span<const core::AsAnalysis> reusable =
        previous != nullptr && previous->epoch() == own_epoch_
            ? previous->analyses()
            : std::span<const core::AsAnalysis>{};
    next = std::make_shared<const ServingSnapshot>(
        this->epoch() + 1, dataset->stats(),
        pipeline_.refresh_analyses(*dataset, reusable, changed));
    // The store is the publication point: the snapshot is fully constructed
    // and never mutated again, so readers that load the pointer see a
    // complete epoch or the previous one — never a mix.
    current_.store(next);
    own_epoch_ = next->epoch();
    last_publish_status_ = util::Status{};
  } catch (const std::exception& e) {
    last_publish_status_ = util::Status::internal(
        std::string{"publish firewall: "} + e.what());
  }
  // eyeball-lint: allow(swallowed-exception): the publish firewall — a non-std exception crossing here must still become a typed Status instead of unwinding the writer, and there is no type info to preserve
  catch (...) {
    last_publish_status_ =
        util::Status::internal("publish firewall: non-std exception");
  }
  if (next == nullptr) {
    // finalize() may already have cleared the touched set, so nothing
    // records what this publish would have re-analyzed: the next one
    // re-analyzes every AS.
    own_epoch_ = 0;
    health_.transition(ServiceHealth::kReadOnly, last_publish_status_);
    return nullptr;
  }

  // ---- Supervised durability: retry transient failures with exponential
  // backoff; surface (never throw) the final verdicts.  A failed save must
  // not take queries down.
  util::Status durability;
  if (persist) {
    const util::RetryPolicy policy{config_.durability_retry, clock()};
    util::FileSystem& fs = filesystem();
    if (!config_.snapshot_dir.empty()) {
      core::StreamingDatasetBuilder& builder = builder_;
      const std::string dir = config_.snapshot_dir;
      last_save_retry_ = policy.run(
          [&builder, &fs, &dir] { return builder.save_snapshot(dir, fs, nullptr); });
      last_save_status_ = last_save_retry_.status;
      if (!last_save_status_.ok()) durability = last_save_status_;
    }
    if (!config_.artifact_path.empty()) {
      const std::string path = config_.artifact_path;
      const std::uint64_t fingerprint =
          core::SnapshotCodec::config_fingerprint(pipeline_.config().dataset);
      const core::TargetDataset& finalized = *dataset;
      const ServingSnapshot& epoch = *next;
      const std::size_t threads = config_.threads;
      last_artifact_retry_ =
          policy.run([&fs, &path, &finalized, &epoch, fingerprint, threads] {
            return core::ArtifactCodec::write(fs, path, finalized, epoch.analyses(),
                                              epoch.epoch(), fingerprint, threads);
          });
      last_artifact_status_ = last_artifact_retry_.status;
      if (!last_artifact_status_.ok()) durability = last_artifact_status_;
    }
  }
  health_.transition(durability.ok() ? ServiceHealth::kHealthy
                                     : ServiceHealth::kDegradedDurability,
                     durability);
  return next;
}

std::uint64_t EyeballService::epoch() const {
  const std::shared_ptr<const ServingSnapshot> snap = current_.load();
  return snap == nullptr ? 0 : snap->epoch();
}

AnalysisRef EyeballService::query(net::Asn asn) const {
  AnalysisRef ref;
  ref.snapshot = snapshot();
  if (ref.snapshot != nullptr) ref.analysis = ref.snapshot->find(asn);
  return ref;
}

BatchResult EyeballService::query_batch(std::span<const net::Asn> asns) const {
  BatchResult result;
  // One snapshot load for the whole batch: every answer is from this epoch.
  result.snapshot = snapshot();
  result.analyses.resize(asns.size(), nullptr);
  if (result.snapshot == nullptr) return result;
  for (std::size_t i = 0; i < asns.size(); ++i) {
    result.analyses[i] = result.snapshot->find(asns[i]);
  }
  return result;
}

std::optional<EyeballService::StatsAnswer> EyeballService::stats() const {
  const std::shared_ptr<const ServingSnapshot> snap = snapshot();
  if (snap == nullptr) return std::nullopt;
  return StatsAnswer{snap->epoch(), snap->stats()};
}

}  // namespace eyeball::serve
