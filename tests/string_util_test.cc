// Unit tests for string helpers.
#include "common/string_util.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace crowder
