#include "core/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <functional>
#include <string>
#include <utility>

#include "core/byte_io.hpp"
#include "core/streaming_dataset.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/file.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace eyeball::core {

namespace {

using byte_io::Reader;

// Layout constants (see the format comment in snapshot.hpp).
constexpr std::size_t kHeaderSize = byte_io::kHeadSize + 8 + 8 + 8;
constexpr std::size_t kConfigSize = 3 * 8;
/// Header, config block, window count and footer: the size of a snapshot
/// of a builder that has ingested nothing.
constexpr std::size_t kEmptySize = kHeaderSize + kConfigSize + 8 + byte_io::kFooterSize;

constexpr byte_io::Envelope kEnvelope{
    .head_magic = byte_io::magic("EYBSNAP1"),
    .tail_magic = byte_io::magic("EYBSNEND"),
    .version = SnapshotCodec::kFormatVersion,
    .min_size = kEmptySize,
    .name = "snapshot",
    .too_short = "snapshot truncated: shorter than the minimum envelope",
    .bad_head_magic = "bad head magic: not a snapshot file",
    .bad_tail_magic = "bad tail magic: truncated or overwritten snapshot",
    .bad_crc = "whole-file CRC mismatch",
};
/// WindowStats plus the sample count that opens each window record.
constexpr std::size_t kWindowHeaderSize = byte_io::kWindowRecordSize + 8;
constexpr std::size_t kSampleSize = 4 + 1;

[[nodiscard]] util::Status corrupt(const char* what) {
  return util::Status::corruption(what);
}

/// 64-bit digest of what conditioning derived from the admitted stream:
/// every bucket's ASN and peer count, each peer field bit for bit, then
/// the stage-1 drop counters (geo-row rejects ride in rejected_samples).
/// Each step is a bijection of the running value for a fixed word and
/// injective in the word, so any one changed word changes the digest.
[[nodiscard]] std::uint64_t derived_state_digest(std::span<const AsPeerSet> by_as,
                                                 const DatasetStats& stats) noexcept {
  std::uint64_t h = 0;
  const auto add = [&h](std::uint64_t word) {
    h = std::rotl((h ^ word) * 0x9e3779b97f4a7c15ULL, 27);
  };
  for (const AsPeerSet& set : by_as) {
    add(net::value_of(set.asn));
    add(set.peers.size());
    for (const PeerRecord& peer : set.peers) {
      add(std::uint64_t{peer.ip.value()} | std::uint64_t{peer.reported_city} << 32);
      add(static_cast<std::uint64_t>(peer.app));
      add(std::bit_cast<std::uint64_t>(peer.location.lat_deg));
      add(std::bit_cast<std::uint64_t>(peer.location.lon_deg));
      add(std::bit_cast<std::uint64_t>(peer.geo_error_km));
    }
  }
  for (const std::size_t counter :
       {stats.missing_geo, stats.high_error, stats.unmapped_as, stats.rejected_samples}) {
    add(counter);
  }
  return util::mix64(h, by_as.size());
}

/// snapshot.<20-digit zero-padded generation>.eyb
[[nodiscard]] std::string snapshot_filename(std::uint64_t generation) {
  std::string digits = std::to_string(generation);
  std::string out = "snapshot.";
  // eyeball-lint: allow(unchecked-status): std::string::append, not the Status-returning file API
  out.append(20 - digits.size(), '0');
  out += digits;
  out += ".eyb";
  return out;
}

/// Parses a snapshot filename; returns false for anything else in the dir.
[[nodiscard]] bool parse_snapshot_filename(const std::string& name,
                                           std::uint64_t& generation) {
  constexpr std::string_view prefix = "snapshot.";
  constexpr std::string_view suffix = ".eyb";
  if (name.size() != prefix.size() + 20 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return false;
  const char* first = name.data() + prefix.size();
  const char* last = first + 20;
  if (!std::all_of(first, last, [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  const auto [ptr, ec] = std::from_chars(first, last, generation);
  return ec == std::errc{} && ptr == last;
}

/// Like parse_snapshot_filename, but ALSO recognizes a quarantined
/// generation (`snapshot.<gen>.eyb.quarantined`), reporting which kind it
/// saw.  Generation-number allocation must consult both: a quarantined
/// generation's number may be the highest in the directory, and reusing it
/// would let a fresh save collide with preserved evidence (the new file's
/// quarantine would overwrite the old corpse).
[[nodiscard]] bool parse_generation_name(const std::string& name,
                                         std::uint64_t& generation,
                                         bool& quarantined) {
  if (parse_snapshot_filename(name, generation)) {
    quarantined = false;
    return true;
  }
  constexpr std::string_view suffix = util::kQuarantineSuffix;
  if (name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    const std::string stem = name.substr(0, name.size() - suffix.size());
    if (parse_snapshot_filename(stem, generation)) {
      quarantined = true;
      return true;
    }
  }
  return false;
}

}  // namespace

std::uint64_t SnapshotCodec::config_fingerprint(const DatasetConfig& config) noexcept {
  // Only the fields that change results; see the header comment.
  std::uint64_t fp = util::mix64(std::bit_cast<std::uint64_t>(config.max_geo_error_km),
                                 static_cast<std::uint64_t>(config.min_peers_per_as));
  return util::mix64(fp, std::bit_cast<std::uint64_t>(config.max_p90_geo_error_km));
}

// The codec reads (encode) and replaces (decode's commit) the builder's
// serial_-guarded state without claiming the role itself: its caller —
// save/restore_snapshot_locked, or a test that owns the builder outright —
// already holds it, and the capability expression `builder.serial_` is not
// spellable from a friend's signature.  Hence the targeted opt-out; the
// single-owner contract is stated in the codec's header comment.
std::vector<std::byte> SnapshotCodec::encode(const StreamingDatasetBuilder& builder,
                                             std::uint64_t generation)
    EYEBALL_NO_THREAD_SAFETY_ANALYSIS {
  const std::vector<WindowStats>& windows = builder.stats_.windows;
  const std::span<const p2p::PeerSample> admitted{builder.admitted_};
  // Sized once, then filled through a cursor: no per-sample append.
  std::vector<std::byte> out(kEmptySize + windows.size() * kWindowHeaderSize +
                             admitted.size() * kSampleSize);
  byte_io::Writer w{out};

  // Header.
  w.put_bytes(kEnvelope.head_magic);
  w.put_u32(kFormatVersion);
  w.put_u64(generation);
  w.put_u64(config_fingerprint(builder.config_));
  w.put_u64(derived_state_digest(builder.by_as_, builder.stats_));

  // Config: the recorded result-affecting fields, human-recoverable even
  // though the fingerprint alone decides admissibility.
  w.put_f64(builder.config_.max_geo_error_km);
  w.put_u64(static_cast<std::uint64_t>(builder.config_.min_peers_per_as));
  w.put_f64(builder.config_.max_p90_geo_error_km);

  // One record per window: its trail entry, then its slice of the admitted
  // stream in admission order.
  w.put_u64(windows.size());
  std::size_t next = 0;
  for (const WindowStats& window : windows) {
    byte_io::put_window(w, window);
    w.put_u64(window.admitted);
    for (const p2p::PeerSample& sample : admitted.subspan(next, window.admitted)) {
      w.put_u32(sample.ip.value());
      w.put_u8(static_cast<std::uint8_t>(sample.app));
    }
    next += window.admitted;
  }
  EYEBALL_DCHECK(next == admitted.size(), "window trail covers the admitted stream");

  EYEBALL_DCHECK(w.remaining() == byte_io::kFooterSize,
                 "snapshot size drifted from its layout");
  byte_io::seal(out, kEnvelope.tail_magic);
  return out;
}

// See encode() above for why the analysis is opted out here.
util::Status SnapshotCodec::decode(std::span<const std::byte> bytes,
                                   StreamingDatasetBuilder& builder,
                                   std::uint64_t* generation)
    EYEBALL_NO_THREAD_SAFETY_ANALYSIS {
  // ---- Envelope (magics, whole-file CRC, version), then the fingerprint. ----
  std::span<const std::byte> body;
  if (util::Status status = byte_io::open_envelope(bytes, kEnvelope, body); !status.ok()) {
    return status;
  }
  Reader reader{body};
  std::uint64_t stored_generation = 0;
  std::uint64_t stored_fingerprint = 0;
  std::uint64_t stored_digest = 0;
  if (!reader.read_u64(stored_generation) || !reader.read_u64(stored_fingerprint) ||
      !reader.read_u64(stored_digest)) {
    return corrupt("unreadable header");
  }
  if (stored_fingerprint != config_fingerprint(builder.config_)) {
    return util::Status::config_mismatch(
        "snapshot was written under a different dataset configuration; "
        "loading it would silently change results");
  }

  // ---- Config: must agree with the header fingerprint AND the live
  // config (defense in depth; the message names the offending field). ----
  double max_geo = 0.0;
  std::uint64_t min_peers = 0;
  double max_p90 = 0.0;
  if (!reader.read_f64(max_geo) || !reader.read_u64(min_peers) ||
      !reader.read_f64(max_p90)) {
    return corrupt("unreadable config block");
  }
  DatasetConfig recorded;
  recorded.max_geo_error_km = max_geo;
  recorded.min_peers_per_as = static_cast<std::size_t>(min_peers);
  recorded.max_p90_geo_error_km = max_p90;
  if (config_fingerprint(recorded) != stored_fingerprint) {
    return corrupt("config block disagrees with the header fingerprint");
  }
  if (std::bit_cast<std::uint64_t>(max_geo) !=
      std::bit_cast<std::uint64_t>(builder.config_.max_geo_error_km)) {
    return util::Status::config_mismatch("max_geo_error_km differs from the live config");
  }
  if (min_peers != static_cast<std::uint64_t>(builder.config_.min_peers_per_as)) {
    return util::Status::config_mismatch("min_peers_per_as differs from the live config");
  }
  if (std::bit_cast<std::uint64_t>(max_p90) !=
      std::bit_cast<std::uint64_t>(builder.config_.max_p90_geo_error_km)) {
    return util::Status::config_mismatch(
        "max_p90_geo_error_km differs from the live config");
  }

  // ---- Window records: the trail and the admitted stream, bounds and
  // counter conservation checked as they are read. ----
  std::uint64_t window_count = 0;
  if (!reader.read_count(kWindowHeaderSize, window_count)) {
    return corrupt("window count exceeds the file");
  }
  std::vector<WindowStats> windows;
  windows.reserve(static_cast<std::size_t>(window_count));
  std::vector<p2p::PeerSample> samples;
  samples.reserve(reader.remaining() / kSampleSize);
  for (std::uint64_t k = 0; k < window_count; ++k) {
    WindowStats window;
    if (util::Status status = byte_io::read_window(reader, window); !status.ok()) {
      return status;
    }
    std::uint64_t count = 0;
    if (!reader.read_count(kSampleSize, count)) {
      return corrupt("sample count exceeds the file");
    }
    if (count != window.admitted) {
      return corrupt("sample count disagrees with the window's admitted count");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint32_t ip = 0;
      std::uint8_t app = 0;
      if (!reader.read_u32(ip) || !reader.read_u8(app)) {
        return corrupt("unreadable sample");
      }
      samples.push_back(p2p::PeerSample{net::Ipv4Address{ip}, static_cast<p2p::App>(app)});
    }
    windows.push_back(window);
  }
  if (reader.remaining() != 0) return corrupt("trailing bytes after the last window");

  // ---- Replay: every window through ingest into a scratch builder with
  // this builder's databases and config.  The log holds exactly what the
  // writer admitted, so replay must admit all of it again. ----
  StreamingDatasetBuilder scratch{builder.primary_, builder.secondary_, builder.mapper_,
                                  builder.config_};
  std::size_t next = 0;
  for (const WindowStats& stored : windows) {
    // At pool width: conditioning is byte-identical at any thread count,
    // so the restoring builder's own ingest knob need not slow its restore.
    scratch.ingest_locked(std::span<const p2p::PeerSample>{samples}.subspan(
                              next, stored.admitted),
                          0);
    next += stored.admitted;
    WindowStats& replayed = scratch.stats_.windows.back();
    if (replayed.rejected != 0) {
      return corrupt("the log holds a sample the admission door rejects");
    }
    if (replayed.duplicates != 0) return corrupt("the log holds a sample twice");
    if (replayed.cumulative_unique != stored.cumulative_unique) {
      return corrupt("a window's cumulative_unique disagrees with replay");
    }
    // The door rejected and dedup dropped the writer's samples before the
    // log; its counts are the stored ones.
    replayed = stored;
    scratch.stats_.rejected_samples += stored.rejected;
  }
  if (derived_state_digest(scratch.by_as_, scratch.stats_) != stored_digest) {
    return util::Status::config_mismatch(
        "snapshot replays to different conditioned state: the geo databases or the "
        "RIB differ from those it was written under");
  }

  // ---- Commit: every check passed; the replayed state becomes the
  // builder's. ----
  builder.admitted_ = std::move(scratch.admitted_);
  builder.by_as_ = std::move(scratch.by_as_);
  builder.seen_ = std::move(scratch.seen_);
  builder.stats_ = std::move(scratch.stats_);
  builder.touched_ = std::move(scratch.touched_);
  builder.last_generation_ = stored_generation;
  if (generation != nullptr) *generation = stored_generation;
  return util::Status{};
}

util::Status StreamingDatasetBuilder::save_snapshot(const std::string& dir) {
  const util::SerialSection owner{serial_};
  return save_snapshot_locked(dir, util::local_filesystem(), nullptr);
}

util::Status StreamingDatasetBuilder::save_snapshot(const std::string& dir,
                                                    util::FileSystem& fs,
                                                    std::uint64_t* generation) {
  const util::SerialSection owner{serial_};
  return save_snapshot_locked(dir, fs, generation);
}

util::Status StreamingDatasetBuilder::save_snapshot_locked(const std::string& dir,
                                                           util::FileSystem& fs,
                                                           std::uint64_t* generation) {
  util::Status status = fs.create_directories(dir);
  if (!status.ok()) return status.with_context("save_snapshot");

  // Next generation: one past the newest on disk and the newest this
  // builder has seen — INCLUDING quarantined generations, so save after
  // restore-with-fallback never reuses the number of a skipped (corrupt)
  // newer file, and a fresh save can never collide with quarantined
  // evidence of the same number.
  std::vector<std::string> names;
  status = fs.list_dir(dir, names);
  if (!status.ok()) return status.with_context("save_snapshot");
  std::uint64_t max_generation = last_generation_;
  std::vector<std::uint64_t> live_generations;
  for (const std::string& name : names) {
    std::uint64_t gen = 0;
    bool quarantined = false;
    if (!parse_generation_name(name, gen, quarantined)) continue;
    max_generation = std::max(max_generation, gen);
    if (!quarantined) live_generations.push_back(gen);
  }
  const std::uint64_t next = max_generation + 1;

  const std::vector<std::byte> bytes = SnapshotCodec::encode(*this, next);
  status = util::atomic_write_file(fs, dir + "/" + snapshot_filename(next), bytes);
  if (!status.ok()) return status.with_context("save_snapshot");
  last_generation_ = next;
  if (generation != nullptr) *generation = next;

  // Prune: keep the two newest LIVE generations (current + last-good
  // fallback).  Quarantined generations never appear in this list — their
  // names no longer parse as live snapshots — so a generation that ever
  // failed validation is preserved until a human removes it, however many
  // saves follow.  Best-effort — a failed unlink costs disk, not
  // correctness.
  live_generations.push_back(next);
  std::sort(live_generations.begin(), live_generations.end(), std::greater<>{});
  for (std::size_t i = 2; i < live_generations.size(); ++i) {
    static_cast<void>(
        fs.remove_file(dir + "/" + snapshot_filename(live_generations[i])));
  }
  return util::Status{};
}

util::Status StreamingDatasetBuilder::restore_snapshot(const std::string& dir,
                                                       SnapshotRestoreInfo* info) {
  const util::SerialSection owner{serial_};
  return restore_snapshot_locked(dir, util::local_filesystem(), info);
}

util::Status StreamingDatasetBuilder::restore_snapshot(const std::string& dir,
                                                       util::FileSystem& fs,
                                                       SnapshotRestoreInfo* info) {
  const util::SerialSection owner{serial_};
  return restore_snapshot_locked(dir, fs, info);
}

util::Status StreamingDatasetBuilder::restore_snapshot_locked(const std::string& dir,
                                                              util::FileSystem& fs,
                                                              SnapshotRestoreInfo* info) {
  std::vector<std::string> names;
  util::Status status = fs.list_dir(dir, names);
  if (!status.ok()) return status.with_context("restore_snapshot");

  std::vector<std::uint64_t> generations;
  for (const std::string& name : names) {
    std::uint64_t gen = 0;
    if (parse_snapshot_filename(name, gen)) generations.push_back(gen);
  }
  if (generations.empty()) {
    return util::Status::not_found("restore_snapshot: no snapshot files in " + dir);
  }
  std::sort(generations.begin(), generations.end(), std::greater<>{});

  // Newest first; a corrupt/truncated/skewed generation falls back to the
  // one before it.  decode() has the strong guarantee, so a failed attempt
  // leaves this builder exactly as it was for the next one.
  //
  // A kCorruption verdict quarantines the file (renamed aside with the
  // error recorded next to it) rather than leaving it in place: the evidence
  // survives for a post-mortem, the next restore's fallback never re-trips
  // on the same corpse, and prune never counts it among the live
  // generations it may remove.  Version/config mismatches are NOT
  // quarantined — those files are intact property of another binary or
  // configuration — and read failures are not either (the bytes may be
  // fine; the disk said no today).  A config mismatch also ends the walk:
  // every older generation was written under the same inputs, and one that
  // happens to replay cleanly would silently drop the newer windows.
  util::Status newest_error;
  for (std::size_t i = 0; i < generations.size(); ++i) {
    const std::uint64_t gen = generations[i];
    const std::string path = dir + "/" + snapshot_filename(gen);
    std::vector<std::byte> bytes;
    status = fs.read_file(path, bytes);
    if (status.ok()) status = SnapshotCodec::decode(bytes, *this, nullptr);
    if (status.ok()) {
      if (info != nullptr) *info = SnapshotRestoreInfo{gen, i};
      return util::Status{};
    }
    if (status.code() == util::StatusCode::kConfigMismatch) {
      return status.with_context("restore_snapshot: generation " + std::to_string(gen));
    }
    if (status.code() == util::StatusCode::kCorruption) {
      // Best-effort: a failed quarantine leaves the corpse in place, which
      // only costs a retried decode on the next restore.
      static_cast<void>(util::quarantine_file(fs, path, status));
    }
    if (i == 0) {
      newest_error = status.with_context("generation " + std::to_string(gen));
    }
  }
  return newest_error.with_context("restore_snapshot: no loadable generation");
}

}  // namespace eyeball::core
