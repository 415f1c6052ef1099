// On-disk snapshots of StreamingDatasetBuilder state — the persistence
// substrate for longitudinal runs (the paper's six monthly windows span
// half a year; the conditioning state must survive process restarts).
//
// Format EYBSNAP1 v2 (all integers little-endian), framed by the envelope
// it shares with EYBART1 (core/byte_io.hpp).  The builder's state is a pure
// function of the samples it admitted (the streaming-equals-one-shot
// contract), so the file stores that stream, not what conditioning derived
// from it:
//
//   header   "EYBSNAP1"  8 B   magic
//            u32              format version (currently 2)
//            u64              generation (monotonic per snapshot directory)
//            u64              config fingerprint (result-affecting fields)
//            u64              derived-state digest (see below)
//   config   f64 max_geo_error_km, u64 min_peers_per_as,
//            f64 max_p90_geo_error_km
//   windows  u64              window count
//            per window, in ingest order:
//              5 x u64        WindowStats {offered, duplicates, admitted,
//                             cumulative_unique, rejected}
//              u64            sample count (== admitted)
//              count x 5 B    admitted samples (ip u32, app u8), in
//                             admission order (bucket peer order)
//   footer   u32              CRC32C of everything above
//            "EYBSNEND"  8 B   tail magic
//
// Decode checks the shared envelope (minimum size, head magic, tail magic,
// whole-file CRC, version — byte_io::open_envelope), then the config
// fingerprint and block, record bounds and counter conservation, then
// REPLAYS every window through ingest, at pool width, into a scratch
// builder with this builder's databases and config.  Replay must admit
// every stored sample (no door rejects, no duplicates) and reproduce each
// window's cumulative_unique; the restored state is then digested and must
// equal the header digest.  Only then is the scratch state moved in, so a
// failed decode never leaves partially-restored state.  The ordering is
// deliberate: a bit-flipped version byte fails the file CRC and reports
// kCorruption, while a genuinely other format (valid CRC, other version)
// reports kVersionMismatch.
//
// The digest covers every bucket's ASN and peer count, each peer field bit
// for bit, and the stage-1 drop counters.  A replay that digests
// differently was conditioned by other geo databases or another RIB than
// the log was written under; restoring it would silently change results,
// so it is refused as kConfigMismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/status.hpp"

namespace eyeball::core {

struct DatasetConfig;
class StreamingDatasetBuilder;

/// What restore_snapshot recovered: which generation loaded, and how many
/// newer-but-unloadable generations were skipped on the way (0 on the happy
/// path; >0 means a torn/corrupt newest snapshot was detected and survived).
/// [[nodiscard]] like Status: the skip count is the only signal that a
/// corrupt newest generation was silently survived, so an API returning one
/// by value must not have it dropped on the floor.
struct [[nodiscard]] SnapshotRestoreInfo {
  std::uint64_t generation = 0;
  std::size_t generations_skipped = 0;
};

/// Encoder/decoder for the EYBSNAP1 v2 format.  Stateless; a friend of
/// StreamingDatasetBuilder so the builder's persisted fields stay private.
///
/// Ownership contract: the caller must hold the builder's single-owner
/// role (`serial_`) for the duration of encode/decode — true for the
/// save/restore paths and for tests that own a builder outright.  The
/// definitions opt out of the thread-safety analysis for exactly that
/// reason (a friend cannot name another class's capability in its
/// signature); see snapshot.cpp.
class SnapshotCodec {
 public:
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Serializes the builder's admitted sample stream, window trail and
  /// config fingerprint, plus the digest of its derived state.  Canonical:
  /// equal builder states encode to identical bytes, so snapshot bytes
  /// double as a state-identity check in tests.
  [[nodiscard]] static std::vector<std::byte> encode(
      const StreamingDatasetBuilder& builder, std::uint64_t generation);

  /// Validates `bytes`, replays them through the builder's databases and,
  /// only if every check passes, replaces the builder's state with the
  /// replayed one.  Every restored bucket is then touched.  On any error
  /// the builder is untouched.  Typed failures: kCorruption (bad
  /// magic/CRC/bounds, counters that do not add up, or a log that replay
  /// does not admit sample for sample), kVersionMismatch (well-formed,
  /// other format version), kConfigMismatch (well-formed, but written under
  /// a different result-affecting configuration, or replayed to a
  /// different digest — loading it would silently change results, so we
  /// refuse).
  [[nodiscard]] static util::Status decode(std::span<const std::byte> bytes,
                                           StreamingDatasetBuilder& builder,
                                           std::uint64_t* generation = nullptr);

  /// Fingerprint over the RESULT-AFFECTING config fields only
  /// (max_geo_error_km, min_peers_per_as, max_p90_geo_error_km).  The
  /// thread count is an execution knob with byte-identical results, so
  /// snapshots deliberately transfer across it.
  [[nodiscard]] static std::uint64_t config_fingerprint(const DatasetConfig& config) noexcept;
};

}  // namespace eyeball::core
