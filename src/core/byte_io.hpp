// Little-endian byte layer shared by the two on-disk codecs (EYBSNAP1 in
// snapshot.cpp, EYBART1 in artifact.cpp): canonical writers that append to
// a buffer, unchecked loads for callers that have already bounded the read,
// the bounds-checked Reader both decoders walk their payloads with, the
// WindowStats record both formats lay out the same way, and the artifact's
// DatasetStats record built from it.  Internal to core;
// neither format's layout lives here, only the shared vocabulary.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "core/dataset.hpp"

namespace eyeball::core::byte_io {

// Writers: each value is one append, not one per byte.

inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  std::array<std::byte, 4> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>((v >> (8 * i)) & 0xffU);
  }
  out.insert(out.end(), bytes.begin(), bytes.end());
}

inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  std::array<std::byte, 8> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>((v >> (8 * i)) & 0xffU);
  }
  out.insert(out.end(), bytes.begin(), bytes.end());
}

inline void put_f64(std::vector<std::byte>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

// Readers: the caller guarantees `at + width <= bytes.size()`.

[[nodiscard]] inline std::uint32_t load_u32(std::span<const std::byte> bytes,
                                            std::size_t at) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t load_u64(std::span<const std::byte> bytes,
                                            std::size_t at) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

[[nodiscard]] inline double load_f64(std::span<const std::byte> bytes,
                                     std::size_t at) noexcept {
  return std::bit_cast<double>(load_u64(bytes, at));
}

/// Bounds-checked little-endian reader over a byte span.  Every read
/// returns false instead of walking past the end; callers funnel a false
/// into kCorruption.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  [[nodiscard]] bool read_u8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return false;
    out = std::to_integer<std::uint8_t>(data_[pos_++]);
    return true;
  }

  [[nodiscard]] bool read_u32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return false;
    out = load_u32(data_, pos_);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& out) noexcept {
    if (remaining() < 8) return false;
    out = load_u64(data_, pos_);
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool read_f64(double& out) noexcept {
    std::uint64_t bits = 0;
    if (!read_u64(bits)) return false;
    out = std::bit_cast<double>(bits);
    return true;
  }

  /// The next `size` bytes as one span.
  [[nodiscard]] bool take(std::uint64_t size, std::span<const std::byte>& out) noexcept {
    if (size > remaining()) return false;
    out = data_.subspan(pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return true;
  }

  /// A u64 element count whose `record_size`-byte records must all fit in
  /// what remains.  Divides, never multiplies: a hostile count cannot
  /// overflow the check, so callers may reserve `out` elements after it.
  [[nodiscard]] bool read_count(std::size_t record_size, std::uint64_t& out) noexcept {
    std::uint64_t count = 0;
    if (!read_u64(count) || count > remaining() / record_size) return false;
    out = count;
    return true;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// DatasetStats record: its 10 counters in declaration order, the window
// count, then the 5 WindowStats fields per window — all u64.
inline constexpr std::size_t kStatsFixedSize = 11 * 8;
inline constexpr std::size_t kWindowRecordSize = 5 * 8;

inline void put_window(std::vector<std::byte>& out, const WindowStats& w) {
  for (const std::size_t field :
       {w.offered, w.duplicates, w.admitted, w.cumulative_unique, w.rejected}) {
    put_u64(out, static_cast<std::uint64_t>(field));
  }
}

inline void put_stats(std::vector<std::byte>& out, const DatasetStats& s) {
  for (const std::size_t counter :
       {s.raw_samples, s.missing_geo, s.high_error, s.unmapped_as,
        s.peers_in_small_ases, s.ases_below_min_peers, s.ases_above_p90_error,
        s.final_peers, s.final_ases, s.rejected_samples, s.windows.size()}) {
    put_u64(out, static_cast<std::uint64_t>(counter));
  }
  for (const WindowStats& w : s.windows) put_window(out, w);
}

/// Decodes a payload that must hold exactly one stats record.  False (and
/// `out` untouched) when the size disagrees with the declared window count.
[[nodiscard]] inline bool decode_stats(std::span<const std::byte> payload,
                                       DatasetStats& out) {
  if (payload.size() < kStatsFixedSize) return false;
  // Divide, never multiply: a hostile count must not overflow the check.
  const std::uint64_t window_count = load_u64(payload, kStatsFixedSize - 8);
  const std::size_t tail = payload.size() - kStatsFixedSize;
  if (tail % kWindowRecordSize != 0 || window_count != tail / kWindowRecordSize) {
    return false;
  }
  const auto at = [&payload](std::size_t i) {
    return static_cast<std::size_t>(load_u64(payload, i * 8));
  };
  DatasetStats stats;
  stats.raw_samples = at(0);
  stats.missing_geo = at(1);
  stats.high_error = at(2);
  stats.unmapped_as = at(3);
  stats.peers_in_small_ases = at(4);
  stats.ases_below_min_peers = at(5);
  stats.ases_above_p90_error = at(6);
  stats.final_peers = at(7);
  stats.final_ases = at(8);
  stats.rejected_samples = at(9);
  stats.windows.reserve(static_cast<std::size_t>(window_count));
  for (std::size_t w = 0; w < window_count; ++w) {
    const std::size_t base = kStatsFixedSize / 8 + w * (kWindowRecordSize / 8);
    stats.windows.push_back(
        WindowStats{at(base), at(base + 1), at(base + 2), at(base + 3), at(base + 4)});
  }
  out = std::move(stats);
  return true;
}

}  // namespace eyeball::core::byte_io
