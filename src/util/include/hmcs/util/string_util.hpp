#pragma once

/// \file string_util.hpp
/// String formatting helpers for the reporting layer (tables, CSV, CLI).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hmcs {

/// Formats a double with `precision` digits after the decimal point:
/// the bytes of printf's `%.*f`, never cut short.
std::string format_fixed(double value, int precision);

/// Formats a double compactly: the bytes of printf's `%.*g` (fixed
/// notation with trailing zeros trimmed, scientific for very small or
/// large magnitudes), except that zero of either sign prints as "0".
std::string format_compact(double value, int significant_digits = 6);

/// format_fixed / format_compact appended to `out`, for writers that
/// build one buffer and need no string per value.
void append_fixed(std::string& out, double value, int precision);
void append_compact(std::string& out, double value,
                    int significant_digits = 6);

/// Room put_g17 needs at its `at`: its text is at most 24 bytes (17
/// digits, a sign, a point and "e-308"), and its fixed-size copies may
/// write scratch bytes past the end it returns.
inline constexpr std::size_t kG17Bytes = 40;

/// Writes the bytes of printf's "%.17g" for a finite `value` — the 17
/// significant digits that round-trip every double — at `at`, which has
/// room for kG17Bytes bytes; returns the end. From about 1e-11 to 1e17
/// the digits come from exact 128-bit integer arithmetic, elsewhere (and
/// for exact ties) from std::to_chars.
char* put_g17(char* at, double value);

/// Left/right pads `s` with spaces to `width` characters. Strings that
/// are already wider are returned unchanged.
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a double/integer, throwing hmcs::ConfigError with the offending
/// text on failure (std::stod's exceptions lose that context).
double parse_double(std::string_view s);
long long parse_int(std::string_view s);

}  // namespace hmcs
