#include "hmcs/util/string_util.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "hmcs/util/error.hpp"

namespace hmcs {

namespace {

/// std::to_chars at an explicit precision prints exactly what printf
/// prints for the same conversion in the "C" locale. `%f` of DBL_MAX
/// has 309 integer digits, so a precision that overflows the stack
/// buffer gets a buffer sized for the worst case.
void append_chars(std::string& out, double value, std::chars_format format,
                  int precision) {
  char buf[512];
  const auto [end, error] =
      std::to_chars(buf, buf + sizeof(buf), value, format, precision);
  if (error == std::errc()) {
    out.append(buf, end);
    return;
  }
  const std::size_t start = out.size();
  out.resize(start + 320 + static_cast<std::size_t>(precision));
  const auto [last, retry] =
      std::to_chars(out.data() + start, out.data() + out.size(), value,
                    format, precision);
  ensure(retry == std::errc(), "append_chars: buffer too small");
  out.resize(static_cast<std::size_t>(last - out.data()));
}

#if defined(__SIZEOF_INT128__)
__extension__ using Uint128 = unsigned __int128;

/// 5^k for k in [0, 27]: the largest powers of five below 2^64.
constexpr auto kPowersOfFive = [] {
  std::array<std::uint64_t, 28> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * 5;
  }
  return powers;
}();

/// Writes the `count` decimal digits of `value` (below 10^count),
/// leading zeros included, two at a time.
void put_digits(char* at, std::uint32_t value, int count) {
  static constexpr char kPairs[] =
      "00010203040506070809101112131415161718192021222324252627282930313233"
      "34353637383940414243444546474849505152535455565758596061626364656667"
      "6869707172737475767778798081828384858687888990919293949596979899";
  for (int i = count; i >= 2; i -= 2) {
    std::memcpy(at + i - 2, kPairs + 2 * (value % 100), 2);
    value /= 100;
  }
  if (count % 2 == 1) at[0] = static_cast<char>('0' + value);
}

/// The fast path of put_g17, for a normal value > 0 = m * 2^e: the 17
/// significant digits N = round(value * 10^k), with k chosen so that N
/// has 17 digits and the decimal exponent X = 16 - k, computed exactly
/// as (m * 5^k) * 2^(e + k) in 128-bit integers. Returns nullptr, for
/// std::to_chars to handle, when k leaves [0, 27] (value below about
/// 1e-11 or from 1e17 up) or the value lies exactly halfway between two
/// 17-digit neighbours.
char* put_g17_exact(char* at, double value) {
  constexpr std::uint64_t kLow = 10000000000000000ull;  // 10^16
  constexpr std::uint64_t kHigh = 10 * kLow;
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const auto biased = static_cast<int>(bits >> 52);
  if (biased == 0) return nullptr;  // subnormal
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = biased - 1075;
  // About floor(log10(2^(e + 52))), which is X or X - 1; the loop
  // below corrects k by one step either way, so the estimate may be off
  // by one (the arithmetic shift floors negative products).
  int k = 16 - (((e + 52) * 78913) >> 18);
  std::uint64_t digits = 0;
  Uint128 rest = 0;
  Uint128 half = 0;
  for (int tries = 0;; ++tries) {
    if (k < 0 || k > 27 || tries == 2) return nullptr;
    const Uint128 product =
        Uint128{m} * kPowersOfFive[static_cast<std::size_t>(k)];
    const int shift = e + k;
    if (shift >= 0) {
      if (shift > 8) return nullptr;  // value * 10^k >= 2^61
      digits = static_cast<std::uint64_t>(product << shift);
      rest = 0;
      half = 0;
    } else {
      if (shift <= -117) return nullptr;  // product < 2^116
      digits = static_cast<std::uint64_t>(product >> -shift);
      rest = product & ((Uint128{1} << -shift) - 1);
      half = Uint128{1} << (-shift - 1);
    }
    if (digits < kLow) {
      ++k;
    } else if (digits >= kHigh) {
      --k;
    } else {
      break;
    }
  }
  if (rest != 0 && rest == half) return nullptr;  // an exact tie
  if (rest > half) ++digits;
  // Rounding up to 10^17 would move X; no double in range is close
  // enough below a power of ten for it to happen.
  if (digits == kHigh) return nullptr;
  const int exponent = 16 - k;

  // The 17 digits, then room for the fixed-size copies below to read
  // past them.
  char text[40] = {};
  put_digits(text, static_cast<std::uint32_t>(digits / 100000000), 9);
  put_digits(text + 9, static_cast<std::uint32_t>(digits % 100000000), 8);
  int length = 17;  // significant digits, trailing zeros dropped
  while (length > 1 && text[length - 1] == '0') --length;
  // Fixed-size copies compile to a few moves; bytes past the end are
  // overwritten or left beyond the returned end.
  if (exponent >= 0) {  // fixed, X < 17 here: ddd.ddd
    const int whole = exponent + 1;
    std::memcpy(at, text, 17);
    if (length <= whole) return at + whole;
    at[whole] = '.';
    std::memcpy(at + whole + 1, text + whole, 16);
    return at + length + 1;
  }
  if (exponent >= -4) {  // fixed: 0.000ddd
    std::memcpy(at, "0.000", 5);
    at += 1 - exponent;
    std::memcpy(at, text, 17);
    return at + length;
  }
  // Scientific, X from -11 to -5: d.ddde-XX.
  at[0] = text[0];
  at[1] = '.';
  std::memcpy(at + 2, text + 1, 16);
  at += length > 1 ? length + 1 : 1;
  std::memcpy(at, "e-", 2);
  at[2] = static_cast<char>('0' + (-exponent) / 10);
  at[3] = static_cast<char>('0' + (-exponent) % 10);
  return at + 4;
}
#else
char* put_g17_exact(char*, double) { return nullptr; }
#endif

}  // namespace

char* put_g17(char* at, double value) {
  if (value > 0.0) {
    if (char* end = put_g17_exact(at, value)) return end;
  } else if (value < 0.0) {
    *at = '-';
    if (char* end = put_g17_exact(at + 1, -value)) return end;
  }
  return std::to_chars(at, at + kG17Bytes, value, std::chars_format::general,
                       17)
      .ptr;
}

void append_fixed(std::string& out, double value, int precision) {
  append_chars(out, value, std::chars_format::fixed, precision);
}

void append_compact(std::string& out, double value, int significant_digits) {
  if (value == 0.0) {
    out += '0';
    return;
  }
  if (significant_digits == 17 && std::isfinite(value)) {
    char buf[kG17Bytes];
    out.append(buf, put_g17(buf, value));
    return;
  }
  append_chars(out, value, std::chars_format::general, significant_digits);
}

std::string format_fixed(double value, int precision) {
  std::string out;
  append_fixed(out, value, precision);
  return out;
}

std::string format_compact(double value, int significant_digits) {
  std::string out;
  append_compact(out, value, significant_digits);
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return std::string(s.substr(begin, end - begin));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  const std::string t = trim(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  require(ec == std::errc() && ptr == t.data() + t.size(),
          "not a valid number: '" + t + "'");
  return value;
}

long long parse_int(std::string_view s) {
  const std::string t = trim(s);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  require(ec == std::errc() && ptr == t.data() + t.size(),
          "not a valid integer: '" + t + "'");
  return value;
}

}  // namespace hmcs
