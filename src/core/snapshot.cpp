#include "core/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "core/byte_io.hpp"
#include "core/streaming_dataset.hpp"
#include "util/annotations.hpp"
#include "util/crc32c.hpp"
#include "util/file.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace eyeball::core {

namespace {

using byte_io::put_f64;
using byte_io::put_u32;
using byte_io::put_u64;
using byte_io::Reader;

// Layout constants (see the format comment in snapshot.hpp).
constexpr char kHeadMagic[8] = {'E', 'Y', 'B', 'S', 'N', 'A', 'P', '1'};
constexpr char kTailMagic[8] = {'E', 'Y', 'B', 'S', 'N', 'E', 'N', 'D'};
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 4;
constexpr std::size_t kSectionHeaderSize = 4 + 8 + 4;
constexpr std::size_t kFooterSize = 4 + 8;

// Section ids, in the order they appear in the file.
enum SectionId : std::uint32_t {
  kConfig = 1,
  kBuckets = 2,
  kSeen = 3,
  kStats = 4,
  kTouched = 5,
};
constexpr std::uint32_t kSectionCount = 5;

constexpr std::size_t kPeerRecordSize = 4 + 1 + 8 + 8 + 8 + 4;
constexpr std::size_t kBucketHeaderSize = 4 + 8;
constexpr std::size_t kConfigPayloadSize = 3 * 8;

[[nodiscard]] util::Status corrupt(const char* what) {
  return util::Status::corruption(what);
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
  std::vector<std::byte> out;

  // Header.
  for (const char c : kHeadMagic) out.push_back(static_cast<std::byte>(c));
  put_u32(out, kFormatVersion);
  put_u64(out, generation);
  put_u64(out, config_fingerprint(builder.config_));
  put_u32(out, kSectionCount);

  std::vector<std::byte> payload;
  const auto emit_section = [&out, &payload](std::uint32_t id) {
    put_u32(out, id);
    put_u64(out, payload.size());
    put_u32(out, util::crc32c_fast(payload));
    out.insert(out.end(), payload.begin(), payload.end());
    payload.clear();
  };

  // kConfig: the recorded result-affecting fields, human-recoverable even
  // though the fingerprint alone decides admissibility.
  put_f64(payload, builder.config_.max_geo_error_km);
  put_u64(payload, static_cast<std::uint64_t>(builder.config_.min_peers_per_as));
  put_f64(payload, builder.config_.max_p90_geo_error_km);
  emit_section(kConfig);

  // kBuckets: the live ASN-ordered peer buckets (std::map iteration is
  // already canonical ascending order).
  put_u64(payload, static_cast<std::uint64_t>(builder.by_as_.size()));
  for (const auto& [asn_value, set] : builder.by_as_) {
    put_u32(payload, asn_value);
    put_u64(payload, static_cast<std::uint64_t>(set.peers.size()));
    for (const PeerRecord& peer : set.peers) {
      put_u32(payload, peer.ip.value());
      payload.push_back(static_cast<std::byte>(peer.app));
      put_f64(payload, peer.location.lat_deg);
      put_f64(payload, peer.location.lon_deg);
      put_f64(payload, peer.geo_error_km);
      put_u32(payload, peer.reported_city);
    }
  }
  emit_section(kBuckets);

  // kSeen: the dedup keys, sorted so equal states encode identically.
  std::vector<std::uint64_t> seen_keys{builder.seen_.begin(), builder.seen_.end()};
  std::sort(seen_keys.begin(), seen_keys.end());
  put_u64(payload, static_cast<std::uint64_t>(seen_keys.size()));
  for (const std::uint64_t key : seen_keys) put_u64(payload, key);
  emit_section(kSeen);

  // kStats: cumulative counters + per-window snapshots.
  byte_io::put_stats(payload, builder.stats_);
  emit_section(kStats);

  // kTouched: sorted for canonical bytes.
  std::vector<std::uint32_t> touched{builder.touched_.begin(), builder.touched_.end()};
  std::sort(touched.begin(), touched.end());
  put_u64(payload, static_cast<std::uint64_t>(touched.size()));
  for (const std::uint32_t asn : touched) put_u32(payload, asn);
  emit_section(kTouched);

  // Footer: whole-file CRC over everything so far, then the tail magic.
  put_u32(out, util::crc32c_fast(out));
  for (const char c : kTailMagic) out.push_back(static_cast<std::byte>(c));
  return out;
}

// See encode() above for why the analysis is opted out here.
util::Status SnapshotCodec::decode(std::span<const std::byte> bytes,
                                   StreamingDatasetBuilder& builder,
                                   std::uint64_t* generation)
    EYEBALL_NO_THREAD_SAFETY_ANALYSIS {
  // ---- Envelope: magics, whole-file CRC, version, fingerprint. ----
  if (bytes.size() < kHeaderSize + kSectionCount * kSectionHeaderSize + kFooterSize) {
    return corrupt("snapshot truncated: shorter than the minimum envelope");
  }
  if (std::memcmp(bytes.data(), kHeadMagic, sizeof kHeadMagic) != 0) {
    return corrupt("bad head magic: not a snapshot file");
  }
  if (std::memcmp(bytes.data() + bytes.size() - sizeof kTailMagic, kTailMagic,
                  sizeof kTailMagic) != 0) {
    return corrupt("bad tail magic: truncated or overwritten snapshot");
  }
  const std::span<const std::byte> body = bytes.first(bytes.size() - kFooterSize);
  Reader footer{bytes.subspan(bytes.size() - kFooterSize)};
  std::uint32_t stored_file_crc = 0;
  if (!footer.read_u32(stored_file_crc)) return corrupt("unreadable footer");
  // CRC before the version check: a damaged version byte is corruption; a
  // version mismatch verdict is reserved for files that are intact.
  if (util::crc32c_fast(body) != stored_file_crc) {
    return corrupt("whole-file CRC mismatch");
  }

  Reader reader{body};
  std::uint64_t skip = 0;
  static_cast<void>(reader.read_u64(skip));  // head magic, verified above
  std::uint32_t version = 0;
  std::uint64_t stored_generation = 0;
  std::uint64_t stored_fingerprint = 0;
  std::uint32_t section_count = 0;
  if (!reader.read_u32(version) || !reader.read_u64(stored_generation) ||
      !reader.read_u64(stored_fingerprint) || !reader.read_u32(section_count)) {
    return corrupt("unreadable header");
  }
  if (version != kFormatVersion) {
    std::string message = "snapshot format v";
    message += std::to_string(version);
    message += ", this binary reads v";
    message += std::to_string(kFormatVersion);
    return util::Status::version_mismatch(std::move(message));
  }
  if (stored_fingerprint != config_fingerprint(builder.config_)) {
    return util::Status::config_mismatch(
        "snapshot was written under a different dataset configuration; "
        "loading it would silently change results");
  }
  if (section_count != kSectionCount) {
    return corrupt("unexpected section count for format v1");
  }

  // ---- Section walk: bounds, per-section CRC, strict id order. ----
  std::array<std::span<const std::byte>, kSectionCount> sections;
  for (std::uint32_t expected_id = 1; expected_id <= kSectionCount; ++expected_id) {
    std::uint32_t id = 0;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    if (!reader.read_u32(id) || !reader.read_u64(size) || !reader.read_u32(crc)) {
      return corrupt("unreadable section header");
    }
    if (id != expected_id) return corrupt("unknown, duplicate, or misordered section id");
    std::span<const std::byte> payload;
    if (!reader.take(size, payload)) return corrupt("section payload overruns the file");
    if (util::crc32c_fast(payload) != crc) return corrupt("section CRC mismatch");
    sections[expected_id - 1] = payload;
  }
  if (reader.remaining() != 0) return corrupt("trailing garbage after the last section");

  // ---- kConfig: must agree with the header fingerprint AND the live
  // config (defense in depth; the message names the offending field). ----
  {
    Reader r{sections[kConfig - 1]};
    if (sections[kConfig - 1].size() != kConfigPayloadSize) {
      return corrupt("config section has the wrong size");
    }
    double max_geo = 0.0;
    std::uint64_t min_peers = 0;
    double max_p90 = 0.0;
    if (!r.read_f64(max_geo) || !r.read_u64(min_peers) || !r.read_f64(max_p90)) {
      return corrupt("unreadable config section");
    }
    DatasetConfig recorded;
    recorded.max_geo_error_km = max_geo;
    recorded.min_peers_per_as = static_cast<std::size_t>(min_peers);
    recorded.max_p90_geo_error_km = max_p90;
    if (config_fingerprint(recorded) != stored_fingerprint) {
      return corrupt("config section disagrees with the header fingerprint");
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
  }

  // ---- Parse every data section into temporaries; nothing below touches
  // the builder until all of them have validated. ----
  std::map<std::uint32_t, AsPeerSet> by_as;
  {
    Reader r{sections[kBuckets - 1]};
    std::uint64_t as_count = 0;
    if (!r.read_u64(as_count)) return corrupt("unreadable bucket count");
    if (as_count > r.remaining() / kBucketHeaderSize) {
      return corrupt("bucket count exceeds the section payload");
    }
    std::uint64_t previous_asn = 0;
    bool first = true;
    for (std::uint64_t a = 0; a < as_count; ++a) {
      std::uint32_t asn_value = 0;
      std::uint64_t peer_count = 0;
      if (!r.read_u32(asn_value) || !r.read_u64(peer_count)) {
        return corrupt("unreadable bucket header");
      }
      if (!first && asn_value <= previous_asn) {
        return corrupt("bucket ASNs not strictly ascending");
      }
      first = false;
      previous_asn = asn_value;
      if (peer_count > r.remaining() / kPeerRecordSize) {
        return corrupt("peer count exceeds the section payload");
      }
      AsPeerSet set;
      set.asn = net::Asn{asn_value};
      set.peers.reserve(static_cast<std::size_t>(peer_count));
      for (std::uint64_t p = 0; p < peer_count; ++p) {
        std::uint32_t ip = 0;
        std::uint8_t app = 0;
        double lat = 0.0;
        double lon = 0.0;
        double err = 0.0;
        std::uint32_t city = 0;
        if (!r.read_u32(ip) || !r.read_u8(app) || !r.read_f64(lat) ||
            !r.read_f64(lon) || !r.read_f64(err) || !r.read_u32(city)) {
          return corrupt("unreadable peer record");
        }
        if (app >= p2p::kAllApps.size()) return corrupt("peer record has an unknown app tag");
        if (!geo::is_valid(geo::GeoPoint{lat, lon})) {
          return corrupt("peer record has out-of-range coordinates");
        }
        if (!std::isfinite(err) || err < 0.0) {
          return corrupt("peer record has an invalid geo error");
        }
        set.peers.push_back(PeerRecord{net::Ipv4Address{ip}, static_cast<p2p::App>(app),
                                       geo::GeoPoint{lat, lon}, err, city});
      }
      by_as.emplace_hint(by_as.end(), asn_value, std::move(set));
    }
    if (r.remaining() != 0) return corrupt("trailing bytes in the bucket section");
  }

  std::vector<std::uint64_t> seen_keys;
  {
    Reader r{sections[kSeen - 1]};
    std::uint64_t count = 0;
    if (!r.read_u64(count)) return corrupt("unreadable dedup-key count");
    // Divide, never multiply: a hostile count must not overflow the check.
    if (r.remaining() % 8 != 0 || count != r.remaining() / 8) {
      return corrupt("dedup-key count disagrees with the payload");
    }
    seen_keys.reserve(static_cast<std::size_t>(count));
    std::uint64_t previous = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t key = 0;
      if (!r.read_u64(key)) return corrupt("unreadable dedup key");
      if (i != 0 && key <= previous) return corrupt("dedup keys not strictly ascending");
      previous = key;
      seen_keys.push_back(key);
    }
  }

  DatasetStats stats;
  if (!byte_io::decode_stats(sections[kStats - 1], stats)) {
    return corrupt("stats section disagrees with its window count");
  }

  std::vector<std::uint32_t> touched;
  {
    Reader r{sections[kTouched - 1]};
    std::uint64_t count = 0;
    if (!r.read_u64(count)) return corrupt("unreadable touched count");
    if (r.remaining() % 4 != 0 || count != r.remaining() / 4) {
      return corrupt("touched count disagrees with the payload");
    }
    touched.reserve(static_cast<std::size_t>(count));
    std::uint32_t previous = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint32_t asn = 0;
      if (!r.read_u32(asn)) return corrupt("unreadable touched ASN");
      if (i != 0 && asn <= previous) return corrupt("touched ASNs not strictly ascending");
      previous = asn;
      touched.push_back(asn);
    }
  }

  // ---- Cross-section invariants of real builder state. ----
  if (stats.raw_samples != seen_keys.size()) {
    return corrupt("raw_samples disagrees with the dedup-key count");
  }
  if (!stats.windows.empty() &&
      stats.windows.back().cumulative_unique != seen_keys.size()) {
    return corrupt("last window's cumulative_unique disagrees with the dedup-key count");
  }
  for (const std::uint32_t asn : touched) {
    if (by_as.find(asn) == by_as.end()) {
      return corrupt("touched ASN has no bucket");
    }
  }

  // ---- Commit: every check passed; replace the builder's state. ----
  builder.by_as_ = std::move(by_as);
  builder.seen_.clear();
  builder.seen_.reserve(seen_keys.size());
  builder.seen_.insert(seen_keys.begin(), seen_keys.end());
  builder.stats_ = std::move(stats);
  builder.touched_.clear();
  builder.touched_.insert(touched.begin(), touched.end());
  builder.pending_.clear();
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
  // fine; the disk said no today).
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
