// Unit tests for string helpers.
#include "common/string_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "common/rng.h"

namespace crowder {
namespace {

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  foo   bar\tbaz \n"),
            (std::vector<std::string>{"foo", "bar", "baz"}));
}

TEST(SplitWhitespaceTest, EmptyAndBlank) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   \t\n").empty());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(FormatDoubleTest, FixedDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(WithThousandsTest, GroupsDigits) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(-45678), "-45,678");
}

TEST(ParseByteSizeTest, PlainNumberAndSuffixesEitherCase) {
  EXPECT_EQ(ParseByteSize("0").ValueOrDie(), 0u);
  EXPECT_EQ(ParseByteSize("4096").ValueOrDie(), 4096u);
  // The documented contract: upper- and lowercase suffixes are equivalent.
  EXPECT_EQ(ParseByteSize("64K").ValueOrDie(), 64u * 1024u);
  EXPECT_EQ(ParseByteSize("64k").ValueOrDie(), 64u * 1024u);
  EXPECT_EQ(ParseByteSize("256M").ValueOrDie(), 256ull << 20);
  EXPECT_EQ(ParseByteSize("256m").ValueOrDie(), 256ull << 20);
  EXPECT_EQ(ParseByteSize("3G").ValueOrDie(), 3ull << 30);
  EXPECT_EQ(ParseByteSize("3g").ValueOrDie(), 3ull << 30);
}

TEST(ParseByteSizeTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseByteSize("").status().IsInvalidArgument());

  // A bare suffix has no number to scale.
  const auto bare = ParseByteSize("K");
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().message().find("start with digits"), std::string::npos);

  // "10KB" is not "10K": only single-letter binary suffixes exist, and the
  // error names the offender.
  const auto kb = ParseByteSize("10KB");
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find("unknown byte-size suffix 'KB'"), std::string::npos);

  EXPECT_TRUE(ParseByteSize("10Q").status().IsInvalidArgument());
  EXPECT_TRUE(ParseByteSize("-1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseByteSize(" 10").status().IsInvalidArgument());
}

TEST(ParseByteSizeTest, RejectsOverflow) {
  // More digits than uint64 can hold.
  const auto digits = ParseByteSize("999999999999999999999");
  ASSERT_FALSE(digits.ok());
  EXPECT_TRUE(digits.status().IsInvalidArgument());

  // Parses as a number but overflows once multiplied by the suffix.
  const auto scaled = ParseByteSize("99999999999G");
  ASSERT_FALSE(scaled.ok());
  EXPECT_NE(scaled.status().message().find("overflows 64 bits"), std::string::npos);

  // The largest representable scaled value still parses.
  EXPECT_EQ(ParseByteSize("17179869183G").ValueOrDie(), 17179869183ull << 30);
}

// The message of a ParseNumber failure, or "" when it parses.
template <typename T>
std::string ParseError(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
                       T hi = std::numeric_limits<T>::max()) {
  const Result<T> parsed = ParseNumber<T>(text, "--n", lo, hi);
  if (parsed.ok()) return "";
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  return parsed.status().message();
}

TEST(ParseNumberTest, ParsesTheWholeFieldOfEachType) {
  EXPECT_EQ(ParseNumber<double>("0.25", "x").ValueOrDie(), 0.25);
  EXPECT_EQ(ParseNumber<double>("-3e2", "x").ValueOrDie(), -300.0);
  EXPECT_EQ(ParseNumber<int>("-7", "x").ValueOrDie(), -7);
  EXPECT_EQ(ParseNumber<int>("2147483647", "x").ValueOrDie(), 2147483647);
  EXPECT_EQ(ParseNumber<uint32_t>("4294967295", "x").ValueOrDie(), 4294967295u);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615", "x").ValueOrDie(),
            18446744073709551615ull);
}

TEST(ParseNumberTest, RejectsPartialAndSignedFieldsNamingThem) {
  EXPECT_EQ(ParseError<double>("abc"), "--n expects a number, got 'abc'");
  EXPECT_EQ(ParseError<double>(""), "--n expects a number, got ''");
  EXPECT_EQ(ParseError<int>("12x"), "--n expects an integer, got '12x'");
  EXPECT_EQ(ParseError<int>(" 1"), "--n expects an integer, got ' 1'");
  EXPECT_EQ(ParseError<int>("+1"), "--n expects an integer, got '+1'");
  EXPECT_EQ(ParseError<uint32_t>("-1"), "--n expects a non-negative integer, got '-1'");
  EXPECT_EQ(ParseError<uint64_t>("1.5"), "--n expects a non-negative integer, got '1.5'");
}

TEST(ParseNumberTest, RejectsValuesThatWouldWrap) {
  EXPECT_EQ(ParseError<uint32_t>("4294967296"), "--n is out of range: '4294967296'");
  EXPECT_EQ(ParseError<int>("2147483648"), "--n is out of range: '2147483648'");
  EXPECT_EQ(ParseError<int>("-2147483649"), "--n is out of range: '-2147483649'");
  EXPECT_EQ(ParseError<uint64_t>("99999999999999999999"),
            "--n is out of range: '99999999999999999999'");
  EXPECT_EQ(ParseError<double>("1e9999"), "--n is out of range: '1e9999'");
}

TEST(ParseNumberTest, RejectsNonFiniteAndOutOfBounds) {
  EXPECT_EQ(ParseError<double>("inf"), "--n must be finite, got 'inf'");
  EXPECT_EQ(ParseError<double>("nan"), "--n must be finite, got 'nan'");
  EXPECT_EQ(ParseError<double>("1.5", 0.0, 1.0), "--n must be in [0, 1], got '1.5'");
  EXPECT_EQ(ParseError<uint32_t>("0", 1, 1024), "--n must be in [1, 1024], got '0'");
  EXPECT_EQ(ParseError<int>("-5", -4, 4), "--n must be in [-4, 4], got '-5'");
  EXPECT_EQ(ParseError<uint32_t>("1024", 1, 1024), "");
}

// ---------------------------------------------------------------------------
// Seeded mutation sweep of the number parsers. Every number that arrives from
// outside (flags, CSV fields, protocol lines, environment knobs, byte sizes)
// goes through ParseNumber or ParseByteSize, so every mutant of a valid field
// must end in a value within bounds that the C library reads the same way,
// or in an InvalidArgument: never a crash, a wrap or an escaped exception.
// ---------------------------------------------------------------------------

// One deterministic mutant of a valid field: truncated, bit-flipped,
// spliced with another field, with digits inflated, or with its exponent
// inflated.
std::string MutateField(Rng* rng) {
  static const char* const kFields[] = {
      "0",          "7",           "42",         "-17",        "4096",        "3.25",
      "0.5",        "1e-3",        "-2.5e10",    "6.02e23",    "2147483647",  "-2147483648",
      "4294967295", "18446744073709551615",     "64k",        "256M",        "3G",
      "17179869183G"};
  const auto pick = [&] { return std::string(kFields[rng->Uniform(std::size(kFields))]); };
  std::string out = pick();
  switch (rng->Uniform(5)) {
    case 0:
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case 1:
      for (uint64_t i = 0, n = 1 + rng->Uniform(3); i < n; ++i) {
        out[rng->Uniform(out.size())] ^= static_cast<char>(1u << rng->Uniform(8));
      }
      break;
    case 2: {
      const std::string other = pick();
      out = out.substr(0, rng->Uniform(out.size() + 1)) +
            other.substr(rng->Uniform(other.size() + 1));
      break;
    }
    case 3:
      out.insert(rng->Uniform(out.size() + 1), 1 + rng->Uniform(40),
                 static_cast<char>('0' + rng->Uniform(10)));
      break;
    default: {
      static const char* const kExponents[] = {"e308", "e309", "e-307", "e-400", "e99999999999",
                                               "E+5", "e", "e-", "e0"};
      const size_t e = out.find_first_of("eE");
      out = out.substr(0, e) + kExponents[rng->Uniform(std::size(kExponents))];
      break;
    }
  }
  return out;
}

// Parses `text` as a T within [lo, hi]: an InvalidArgument, or a value within
// bounds that strtod/strtoll/strtoull read from the whole text as well.
// Counts the outcome in `counts` (rejected, accepted).
template <typename T>
void CheckField(const std::string& text, T lo, T hi, std::pair<int, int>* counts) {
  const Result<T> parsed = ParseNumber<T>(text, "field", lo, hi);
  if (!parsed.ok()) {
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status().ToString();
    ++counts->first;
    return;
  }
  ++counts->second;
  EXPECT_GE(*parsed, lo);
  EXPECT_LE(*parsed, hi);
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_floating_point_v<T>) {
    EXPECT_TRUE(std::isfinite(*parsed));
    EXPECT_EQ(*parsed, std::strtod(text.c_str(), &end));
  } else if constexpr (std::is_signed_v<T>) {
    EXPECT_EQ(*parsed, std::strtoll(text.c_str(), &end, 10));
    EXPECT_EQ(errno, 0);
  } else {
    EXPECT_EQ(text.find('-'), std::string::npos);  // strtoull would wrap "-1"
    EXPECT_EQ(*parsed, std::strtoull(text.c_str(), &end, 10));
    EXPECT_EQ(errno, 0);
  }
  EXPECT_EQ(end, text.c_str() + text.size());
}

TEST(NumberParserSweep, EveryMutantParsesWithinBoundsOrIsInvalidArgument) {
  Rng rng(20261018);
  std::pair<int, int> doubles, narrow_doubles, ints, narrow_ints, u32s, narrow_u32s, u64s,
      sizes;
  constexpr int kMutants = 1500;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = MutateField(&rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": '" + text + "'");
    CheckField<double>(text, std::numeric_limits<double>::lowest(),
                       std::numeric_limits<double>::max(), &doubles);
    CheckField<double>(text, 0.0, 1.0, &narrow_doubles);
    CheckField<int>(text, std::numeric_limits<int>::min(), std::numeric_limits<int>::max(),
                    &ints);
    CheckField<int>(text, -4, 4096, &narrow_ints);
    CheckField<uint32_t>(text, 0, std::numeric_limits<uint32_t>::max(), &u32s);
    CheckField<uint32_t>(text, 1, 4096, &narrow_u32s);
    CheckField<uint64_t>(text, 0, std::numeric_limits<uint64_t>::max(), &u64s);

    // ParseByteSize against its contract: digits, then at most one of
    // K/M/G in either case, the scaled value fitting 64 bits.
    const Result<uint64_t> bytes = ParseByteSize(text);
    const size_t digits = std::find_if_not(text.begin(), text.end(),
                                           [](char c) { return c >= '0' && c <= '9'; }) -
                          text.begin();
    const std::string suffix = text.substr(digits);
    const int shift = suffix.empty()                        ? 0
                      : suffix == "K" || suffix == "k"      ? 10
                      : suffix == "M" || suffix == "m"      ? 20
                      : suffix == "G" || suffix == "g"      ? 30
                                                            : -1;
    uint64_t want = 0;
    bool fits = digits > 0 && shift >= 0;
    for (size_t d = 0; fits && d < digits; ++d) {
      fits = !__builtin_mul_overflow(want, 10, &want) &&
             !__builtin_add_overflow(want, static_cast<uint64_t>(text[d] - '0'), &want);
    }
    fits = fits && (shift == 0 || want <= (UINT64_MAX >> shift));
    if (bytes.ok()) {
      ++sizes.second;
      EXPECT_TRUE(fits);
      if (fits) {
        EXPECT_EQ(*bytes, want << shift);
      }
    } else {
      ++sizes.first;
      EXPECT_TRUE(bytes.status().IsInvalidArgument()) << bytes.status().ToString();
      EXPECT_FALSE(fits);
    }
  }
  // Both outcomes occur for every parser: the sweep is neither vacuous nor
  // all-rejecting.
  for (const auto& [rejected, accepted] :
       {doubles, narrow_doubles, ints, narrow_ints, u32s, narrow_u32s, u64s, sizes}) {
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted, 0);
  }
}

}  // namespace
}  // namespace crowder
