// Small string helpers shared across modules.
#ifndef CROWDER_COMMON_STRING_UTIL_H_
#define CROWDER_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace crowder {

/// \brief Splits `s` on runs of whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief printf-style float formatting helper: fixed `digits` decimals.
std::string FormatDouble(double value, int digits);

/// \brief Renders 12345 as "12,345" for table output.
std::string WithThousands(long long value);

/// \brief Parses a byte size with an optional binary-unit suffix, upper- or
/// lowercase: "4096" -> 4096, "64K" == "64k" -> 65536, "256M" -> 2^28,
/// "1G" -> 2^30. Errors (InvalidArgument) on an empty string, a missing
/// leading number ("K"), an unknown or multi-letter suffix ("10KB"), a
/// number that does not fit ("999999999999999999999"), and a value whose
/// multiplied result overflows 64 bits.
Result<uint64_t> ParseByteSize(const std::string& text);

/// \brief Parses the whole of `text` as a T, for numbers that arrive from
/// outside the program (flags, CSV fields, protocol lines). T is double, int,
/// uint32_t or uint64_t; an unsigned T takes no sign. The field must parse
/// completely through std::from_chars (no whitespace, no '+', nothing after
/// the number), be finite, and lie within [lo, hi]. Anything else is an
/// InvalidArgument whose message starts with `what`, the name of the field:
/// "--k expects a non-negative integer, got '-1'", "--k is out of range:
/// '99999999999999999999'", "--threshold must be finite, got 'inf'",
/// "--shards must be in [1, 1024], got '0'".
template <typename T>
Result<T> ParseNumber(std::string_view text, std::string_view what,
                      T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max());

}  // namespace crowder

#endif  // CROWDER_COMMON_STRING_UTIL_H_
