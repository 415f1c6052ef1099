// On-disk snapshots of StreamingDatasetBuilder state — the persistence
// substrate for longitudinal runs (the paper's six monthly windows span
// half a year; the conditioning state must survive process restarts).
//
// Format EYBSNAP1 (all integers little-endian, doubles as IEEE-754 bits):
//
//   header   "EYBSNAP1"  8 B   magic
//            u32              format version (currently 1)
//            u64              generation (monotonic per snapshot directory)
//            u64              config fingerprint (result-affecting fields)
//            u32              section count
//   section  u32              section id          |
//            u64              payload size         |  repeated
//            u32              payload CRC32C       |  section-count times
//            payload bytes                         |
//   footer   u32              CRC32C of everything above
//            "EYBSNEND"  8 B   tail magic
//
// Decode validates outside-in: magics, then the whole-file CRC, then the
// version, then the config fingerprint, then each section (bounds, CRC,
// strict id/order checks, semantic invariants), parsing into temporaries
// and committing to the builder only when every check has passed — a
// failed decode never leaves partially-restored state.  The ordering is
// deliberate: a bit-flipped version byte fails the file CRC and reports
// kCorruption, while a genuinely newer format (valid CRC, higher version)
// reports kVersionMismatch.
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

/// Encoder/decoder for the EYBSNAP1 format.  Stateless; a friend of
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
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Serializes the builder's complete logical state (buckets, dedup keys,
  /// stats incl. windows, touched set, config fingerprint).  Canonical:
  /// equal builder states encode to identical bytes (unordered sets are
  /// sorted on the way out), so snapshot bytes double as a state-identity
  /// check in tests.
  [[nodiscard]] static std::vector<std::byte> encode(
      const StreamingDatasetBuilder& builder, std::uint64_t generation);

  /// Validates `bytes` and, only if every check passes, replaces the
  /// builder's state with the decoded one (pending scratch
  /// cleared).  On any error the builder is untouched.  Typed
  /// failures: kCorruption (bad magic/CRC/bounds/semantic invariant),
  /// kVersionMismatch (well-formed, newer format), kConfigMismatch (well-
  /// formed, but written under a different result-affecting configuration —
  /// loading it would silently change results, so we refuse).
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
