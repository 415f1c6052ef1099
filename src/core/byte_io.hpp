// Little-endian byte layer shared by the two on-disk codecs (EYBSNAP1 in
// snapshot.cpp, EYBART1 in artifact.cpp): the envelope both formats are
// framed by (seal() and open_envelope()), the cursor both encoders fill
// their pre-sized images through, unchecked loads for callers that have
// already bounded the read, the bounds-checked Reader both decoders walk
// their bodies with, the WindowStats record both formats lay out the same
// way, and the artifact's DatasetStats record built from it.  Internal to
// core; neither format's body layout lives here, only the shared
// vocabulary.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/status.hpp"

namespace eyeball::core::byte_io {

// The writer stores each value as its native bytes (one memcpy, and one per
// block of doubles), which is the little-endian layout only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "byte_io::Writer copies native bytes as the little-endian format");

/// Cursor over a buffer the encoder has already sized exactly: each put
/// stores at the cursor and steps past it, never growing anything.
/// Writing past the end is a sizing bug in the encoder, not an input
/// error, so it is a DCHECK.
class Writer {
 public:
  explicit Writer(std::span<std::byte> out) noexcept : out_(out) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return out_.size() - pos_; }

  void put_u8(std::uint8_t v) noexcept { put_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) noexcept { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) noexcept { put_raw(&v, sizeof v); }
  void put_f64(double v) noexcept { put_raw(&v, sizeof v); }
  void put_bytes(std::span<const std::byte> bytes) noexcept {
    put_raw(bytes.data(), bytes.size());
  }
  /// The doubles' IEEE-754 bit patterns, as one copy.
  void put_f64s(std::span<const double> values) noexcept {
    put_raw(values.data(), values.size_bytes());
  }

  /// A writer over the next `size` bytes, which this one steps past: lets
  /// an encoder fill two regions it has laid out in one walk.
  [[nodiscard]] Writer take(std::size_t size) noexcept {
    EYEBALL_DCHECK(size <= remaining(), "byte_io::Writer ran past its sized buffer");
    Writer region{out_.subspan(pos_, size)};
    pos_ += size;
    return region;
  }

 private:
  void put_raw(const void* data, std::size_t size) noexcept {
    EYEBALL_DCHECK(size <= remaining(), "byte_io::Writer ran past its sized buffer");
    if (size != 0) std::memcpy(out_.data() + pos_, data, size);
    pos_ += size;
  }

  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

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

// ---- Envelope --------------------------------------------------------------
//
// Both durable formats share one frame:
//
//   head     8 B head magic, u32 format version
//   body     the format's own fields
//   footer   u32 CRC32C of every byte above, then an 8 B tail magic
//
// The CRC covers the head and the body, so a flipped bit anywhere but in
// the tail magic fails it, and the tail compare catches the rest
// (truncation included).

/// An 8-byte magic from its 8-character spelling (the literal's closing
/// NUL is dropped).
[[nodiscard]] consteval std::array<std::byte, 8> magic(const char (&text)[9]) {
  std::array<std::byte, 8> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::byte>(text[i]);
  return out;
}

inline constexpr std::size_t kHeadSize = 8 + 4;
inline constexpr std::size_t kFooterSize = 4 + 8;

/// One format's frame and the words it refuses in.
struct Envelope {
  std::array<std::byte, 8> head_magic;
  std::array<std::byte, 8> tail_magic;
  /// The one version this build reads.
  std::uint32_t version;
  /// The smallest well-formed image, head and footer included.
  std::size_t min_size;
  /// Names the format in the version-skew refusal.
  const char* name;
  // kCorruption messages, one per check.
  const char* too_short;
  const char* bad_head_magic;
  const char* bad_tail_magic;
  const char* bad_crc;
  /// Consulted only once the footer CRC has failed: true for an intact
  /// image of an earlier framing, which the version check then refuses as
  /// skew instead of corruption.  Null when the format had no other frame.
  bool (*intact_earlier_frame)(std::span<const std::byte>) = nullptr;
};

/// Seals a pre-sized image whose last kFooterSize bytes are the footer:
/// writes the CRC32C of every byte before it, then the tail magic.
inline void seal(std::span<std::byte> image, const std::array<std::byte, 8>& tail_magic) {
  EYEBALL_DCHECK(image.size() >= kHeadSize + kFooterSize,
                 "image smaller than its envelope");
  Writer footer{image.last(kFooterSize)};
  footer.put_u32(util::crc32c_fast(image.first(image.size() - kFooterSize)));
  footer.put_bytes(tail_magic);
}

/// Checks `image`'s envelope, in order: minimum size, head magic, tail
/// magic, footer CRC, then the version.  A CRC failure is kCorruption, so a
/// bit-flipped version byte never reads as skew; an intact image of another
/// version is kVersionMismatch.  On success `body` is every byte between
/// the version and the footer.
[[nodiscard]] inline util::Status open_envelope(std::span<const std::byte> image,
                                                const Envelope& envelope,
                                                std::span<const std::byte>& body) {
  EYEBALL_DCHECK(envelope.min_size >= kHeadSize + kFooterSize,
                 "a format's minimum size covers its envelope");
  if (image.size() < envelope.min_size) {
    return util::Status::corruption(envelope.too_short);
  }
  if (!std::equal(envelope.head_magic.begin(), envelope.head_magic.end(), image.begin())) {
    return util::Status::corruption(envelope.bad_head_magic);
  }
  if (!std::equal(envelope.tail_magic.begin(), envelope.tail_magic.end(),
                  image.end() - static_cast<std::ptrdiff_t>(envelope.tail_magic.size()))) {
    return util::Status::corruption(envelope.bad_tail_magic);
  }
  const std::span<const std::byte> sealed = image.first(image.size() - kFooterSize);
  if (util::crc32c_fast(sealed) != load_u32(image, sealed.size()) &&
      (envelope.intact_earlier_frame == nullptr ||
       !envelope.intact_earlier_frame(image))) {
    return util::Status::corruption(envelope.bad_crc);
  }
  const std::uint32_t version = load_u32(image, 8);
  if (version != envelope.version) {
    return util::Status::version_mismatch(
        std::string{envelope.name} + " format v" + std::to_string(version) +
        ", this binary reads v" + std::to_string(envelope.version));
  }
  body = sealed.subspan(kHeadSize);
  return util::Status{};
}

// DatasetStats record: its 10 counters in declaration order, the window
// count, then the 5 WindowStats fields per window — all u64.
inline constexpr std::size_t kStatsFixedSize = 11 * 8;
inline constexpr std::size_t kWindowRecordSize = 5 * 8;

inline void put_window(Writer& out, const WindowStats& w) {
  for (const std::size_t field :
       {w.offered, w.duplicates, w.admitted, w.cumulative_unique, w.rejected}) {
    out.put_u64(static_cast<std::uint64_t>(field));
  }
}

[[nodiscard]] inline std::size_t stats_size(const DatasetStats& s) noexcept {
  return kStatsFixedSize + s.windows.size() * kWindowRecordSize;
}

inline void put_stats(Writer& out, const DatasetStats& s) {
  for (const std::size_t counter :
       {s.raw_samples, s.missing_geo, s.high_error, s.unmapped_as,
        s.peers_in_small_ases, s.ases_below_min_peers, s.ases_above_p90_error,
        s.final_peers, s.final_ases, s.rejected_samples, s.windows.size()}) {
    out.put_u64(static_cast<std::uint64_t>(counter));
  }
  for (const WindowStats& w : s.windows) put_window(out, w);
}

/// Reads one window record (as put_window wrote it) at the reader's cursor
/// and checks its conservation, offered == duplicates + admitted +
/// rejected.  kCorruption (and `out` untouched) when it runs past the end
/// or the counters do not add up.
[[nodiscard]] inline util::Status read_window(Reader& in, WindowStats& out) {
  std::array<std::uint64_t, 5> fields{};
  for (std::uint64_t& field : fields) {
    if (!in.read_u64(field)) return util::Status::corruption("unreadable window record");
  }
  const auto [offered, duplicates, admitted, cumulative_unique, rejected] = fields;
  // Subtract, never add: hostile counters must not wrap the check.
  if (admitted > offered || duplicates > offered - admitted ||
      rejected != offered - admitted - duplicates) {
    return util::Status::corruption(
        "window counters do not add up: offered != duplicates + admitted + rejected");
  }
  const auto field = [](std::uint64_t v) { return static_cast<std::size_t>(v); };
  out = WindowStats{field(offered), field(duplicates), field(admitted),
                    field(cumulative_unique), field(rejected)};
  return util::Status{};
}

/// Reads one stats record (as put_stats wrote it) at the reader's cursor.
/// kCorruption (and `out` untouched) when it runs past the end or a window
/// fails read_window; the window count is bounded by the bytes left before
/// anything is reserved for it.
[[nodiscard]] inline util::Status read_stats(Reader& in, DatasetStats& out) {
  std::array<std::uint64_t, 10> counters{};
  for (std::uint64_t& counter : counters) {
    if (!in.read_u64(counter)) {
      return util::Status::corruption("stats record runs past the image");
    }
  }
  std::uint64_t window_count = 0;
  if (!in.read_count(kWindowRecordSize, window_count)) {
    return util::Status::corruption("window count exceeds the image");
  }
  const auto field = [](std::uint64_t v) { return static_cast<std::size_t>(v); };
  DatasetStats stats;
  stats.raw_samples = field(counters[0]);
  stats.missing_geo = field(counters[1]);
  stats.high_error = field(counters[2]);
  stats.unmapped_as = field(counters[3]);
  stats.peers_in_small_ases = field(counters[4]);
  stats.ases_below_min_peers = field(counters[5]);
  stats.ases_above_p90_error = field(counters[6]);
  stats.final_peers = field(counters[7]);
  stats.final_ases = field(counters[8]);
  stats.rejected_samples = field(counters[9]);
  stats.windows.resize(static_cast<std::size_t>(window_count));
  for (WindowStats& window : stats.windows) {
    if (util::Status status = read_window(in, window); !status.ok()) return status;
  }
  out = std::move(stats);
  return util::Status{};
}

}  // namespace eyeball::core::byte_io
