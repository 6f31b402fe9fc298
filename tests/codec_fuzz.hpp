// codec_fuzz.hpp — the seeded mutation fuzz shared by every decoder test:
// the report codecs (RunReport in test_api, StudyResult in test_study), the
// service payloads (plan, study, outcome, stats in test_serve) and the
// spill formats (layout, recipe in test_directives_mapping). libFuzzer
// comes with clang and the suite also builds with g++, so each decoder gets
// a deterministic ctest instead: mutated encodings must be rejected with
// std::invalid_argument or decode to a value that re-encodes to a fixpoint.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace hpf90d::codec_fuzz {

/// Applies 1-3 seeded mutations: byte flips from a codec-flavoured
/// alphabet, deletions, token insertions, truncation, line duplication.
inline std::string mutate(std::string text, std::mt19937_64& rng) {
  static const std::string kAlphabet = "0123456789.-+eEinfa,;#\n\"{}[]: x\\u";
  static const std::vector<std::string> kTokens = {
      "1e999",   "1e-320", "4.9406564584124654e-324", "nan", "-inf", "1.5abc", "+1",
      " ",       "\n",     "#",                       ",",   ",,",   "\"",     "\\u00ff",
      "1e999999", "-0",    "0x10",                    "true", "{}",  "[]",     "\\u0041"};
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t count = 1 + pick(3);
  for (std::size_t i = 0; i < count && !text.empty(); ++i) {
    const std::size_t at = pick(text.size());
    switch (pick(5)) {
      case 0: text[at] = kAlphabet[pick(kAlphabet.size())]; break;
      case 1: text.erase(at, 1 + pick(3)); break;
      case 2: text.insert(at, kTokens[pick(kTokens.size())]); break;
      case 3: text.resize(at); break;
      default: {
        const std::size_t bol = text.rfind('\n', at) == std::string::npos
                                    ? 0
                                    : text.rfind('\n', at) + 1;
        const std::size_t eol = text.find('\n', at);
        const std::string line =
            text.substr(bol, (eol == std::string::npos ? text.size() : eol + 1) - bol);
        text.insert(bol, line);
      }
    }
  }
  return text;
}

/// Feeds mutated encodings to `decode`: every input is either rejected
/// with std::invalid_argument or accepted, and an accepted one re-encodes
/// to a fixpoint (decode(encode(x)) encodes to the same bytes). Any other
/// exception or a crash fails the test.
template <typename Decode, typename Encode>
void fuzz_decoder(const std::vector<std::string>& seeds, Decode decode, Encode encode,
                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::size_t accepted = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string input = mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng);
    std::string once;
    try {
      once = encode(decode(input));
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(encode(decode(once)), once) << "input: " << input;
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace hpf90d::codec_fuzz
