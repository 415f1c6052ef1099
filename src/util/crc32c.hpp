// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// whole-file footer checksum both durable formats are sealed with.
//
// Castagnoli rather than the zlib polynomial because its error-detection
// properties are strictly better at these block sizes and it is the de
// facto storage-format choice (iSCSI, ext4, LevelDB table files), so the
// on-disk format stays recognizable to standard tooling.  Table-driven,
// one byte at a time: snapshot encode/decode is dominated by memory
// traffic, not the checksum, and a constexpr table keeps the header
// freestanding (no global init order, safe from any thread).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace eyeball::util {

namespace detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc32c_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0x82f63b78U : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

}  // namespace detail

/// CRC32C of `data`.  `seed` chains blocks: crc32c(b, crc32c(a)) equals
/// crc32c of a followed by b, so callers can checksum streamed writes
/// without buffering.  crc32c of "123456789" is 0xE3069283 (the published
/// check value, pinned by util_test).
[[nodiscard]] constexpr std::uint32_t crc32c(std::span<const std::byte> data,
                                             std::uint32_t seed = 0) noexcept {
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc = detail::kCrc32cTable[(crc ^ static_cast<std::uint32_t>(b)) & 0xffU] ^
          (crc >> 8);
  }
  return ~crc;
}

/// Same polynomial, same results, built for bulk: uses the SSE4.2 CRC32
/// instruction when the host supports it (runtime dispatch; ~an order of
/// magnitude past the byte-at-a-time table) and falls back to the table
/// otherwise.  Both on-disk codecs checksum with it: opening an artifact
/// (core/artifact.hpp) checksums the whole memory-mapped image once before
/// the first query, so the checksum is a hot loop there.
/// Equality with crc32c(), the reference, over arbitrary inputs is pinned
/// by util_test.
[[nodiscard]] std::uint32_t crc32c_fast(std::span<const std::byte> data,
                                        std::uint32_t seed = 0) noexcept;

}  // namespace eyeball::util
