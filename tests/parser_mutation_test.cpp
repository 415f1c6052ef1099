// Deterministic mutation sweep over the three text parsers that real
// external data enters through: net::Ipv4Prefix::parse (nullopt on refusal),
// bgp::RibSnapshot::parse and geodb::TableGeoDatabase::parse (both throw
// std::invalid_argument on refusal).
//
// Each sweep starts from valid seed text and applies one to three seeded
// mutations per mutant: byte flips, truncations, inserted '|', '/', '\r'
// and digits, and huge numbers.  Every mutant must either parse into a
// well-formed result (prefix lengths <= 32, every table record at valid
// coordinates) or be refused the parser's documented way.  Any other
// exception, or a crash caught by the sanitizer builds, fails the sweep.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/rib.hpp"
#include "geo/point.hpp"
#include "geodb/table_db.hpp"
#include "net/ipv4.hpp"
#include "util/rng.hpp"

namespace eyeball {
namespace {

constexpr int kMutantsPerSweep = 4000;

/// Applies one seeded mutation to `text`.
void mutate_once(util::Rng& rng, std::string& text) {
  static constexpr std::string_view kInserts[] = {"|", "/", "\r", "0", "7", "9"};
  static constexpr std::string_view kHugeNumbers[] = {
      "4294967296", "99999999999999999999", "1e999", "-1e999", "340282366920938463463"};
  const auto position = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.uniform_index(text.size() + extra));
  };
  switch (rng.uniform_index(5)) {
    case 0:  // flip one bit of one byte
      if (!text.empty()) {
        const std::size_t at = position(0);
        text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_index(8)));
      }
      break;
    case 1:  // truncate
      text.resize(position(1));
      break;
    case 2:  // insert a structural character or a digit
      text.insert(position(1), kInserts[rng.uniform_index(std::size(kInserts))]);
      break;
    case 3: {  // replace the digit run at a random position by a huge number
      const std::size_t at = position(1);
      std::size_t end = at;
      while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
      text.replace(at, end - at, kHugeNumbers[rng.uniform_index(std::size(kHugeNumbers))]);
      break;
    }
    default:  // overwrite one byte with any value
      if (!text.empty()) text[position(0)] = static_cast<char>(rng.uniform_index(256));
      break;
  }
}

/// Whether `parse` accepted `text`.  `parse` returns false for a nullopt
/// refusal; a thrown std::invalid_argument is the other documented refusal.
/// Any other exception propagates and fails the test; a standard one is
/// first recorded under the caller's mutant trace.
template <typename Parse>
bool parsed_or_refused(const std::string& text, const Parse& parse) {
  try {
    return parse(text);
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "unexpected exception: " << error.what();
    throw;
  }
}

/// Runs `parse` (see parsed_or_refused) on kMutantsPerSweep mutants of the
/// seed texts.  A sweep that only ever accepts or only ever refuses tests
/// nothing, so both outcomes must occur.
template <typename Parse>
void sweep(std::uint64_t seed, const std::vector<std::string>& seeds, const Parse& parse) {
  util::Rng rng{seed};
  int accepted = 0;
  for (int i = 0; i < kMutantsPerSweep; ++i) {
    std::string text = seeds[rng.uniform_index(seeds.size())];
    const auto mutations = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < mutations; ++m) mutate_once(rng, text);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": \"" + text + "\"");
    if (parsed_or_refused(text, parse)) ++accepted;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutantsPerSweep);
}

TEST(ParserMutation, PrefixParseAcceptsOnlyWellFormedPrefixes) {
  const std::vector<std::string> seeds = {"10.0.0.0/8", "192.168.1.0/24", "0.0.0.0/0",
                                          "255.255.255.255/32", "151.38.0.0/16"};
  sweep(0x5eed0001, seeds, [](const std::string& text) {
    const auto prefix = net::Ipv4Prefix::parse(text);
    if (!prefix) return false;
    EXPECT_GE(prefix->length(), 0);
    EXPECT_LE(prefix->length(), 32);
    // Accepted text names one canonical prefix, which survives a round trip.
    EXPECT_EQ(net::Ipv4Prefix::parse(prefix->to_string()), prefix);
    return true;
  });
}

TEST(ParserMutation, RibParseAcceptsOnlyWellFormedEntries) {
  const std::vector<std::string> seeds = {
      "10.0.0.0/8|3356 1299 64500\n151.38.0.0/16|174 3269\n",
      "0.0.0.0/0|7018\n255.255.255.255/32|64512\n",
      "203.0.113.0/24|3356 4294967295\n\n"};
  sweep(0x5eed0002, seeds, [](const std::string& text) {
    const auto rib = bgp::RibSnapshot::parse(text);
    for (const auto& entry : rib.entries()) {
      EXPECT_LE(entry.prefix.length(), 32);
      EXPECT_FALSE(entry.as_path.empty());
    }
    return true;
  });
}

TEST(ParserMutation, TableParseAcceptsOnlyValidCoordinates) {
  const std::vector<std::string> seeds = {
      "151.38.0.0/16|45.4642|9.1900|Milan|Lombardy|IT\n"
      "10.0.0.0/8|41.9|12.5|Rome|Lazio|IT\n",
      "# vendor export\n0.0.0.0/0|-33.8688|151.2093|Sydney|NSW|AU\n",
      "198.51.100.0/24|0|-180|Null Island|None|ZZ\n"};
  sweep(0x5eed0003, seeds, [](const std::string& text) {
    const auto table = geodb::TableGeoDatabase::parse("mutant", text);
    // dump() lists every stored row; each must name a prefix of length
    // <= 32 whose record sits at valid coordinates.
    const std::string dump = table.dump();
    std::string_view rest = dump;
    std::size_t rows = 0;
    while (!rest.empty()) {
      const auto newline = rest.find('\n');
      const auto line = rest.substr(0, newline);
      rest.remove_prefix(newline == std::string_view::npos ? rest.size() : newline + 1);
      ++rows;
      const auto prefix = net::Ipv4Prefix::parse(line.substr(0, line.find('|')));
      if (!prefix) {
        ADD_FAILURE() << "dumped row without a prefix: " << line;
        continue;
      }
      EXPECT_LE(prefix->length(), 32);
      const auto record = table.lookup(prefix->first());
      EXPECT_TRUE(record && geo::is_valid(record->location)) << line;
    }
    EXPECT_EQ(rows, table.size());
    return true;
  });
}

}  // namespace
}  // namespace eyeball
