// Differential check of the number formatters against printf: JsonWriter
// prints doubles as "%.17g", format_fixed as "%.*f" and format_compact
// as "%.*g", byte for byte, over seeded random bit patterns (every
// exponent, subnormals, NaN payloads), the range where put_g17 computes
// its digits in integers, and the edge values.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "hmcs/util/json.hpp"
#include "hmcs/util/string_util.hpp"

namespace {

using namespace hmcs;

/// printf's bytes for `format` at `precision`, in a buffer large enough
/// for "%.400f" of DBL_MAX.
std::string printf_bytes(const char* format, int precision, double value) {
  char buf[1024];
  const int n = std::snprintf(buf, sizeof(buf), format, precision, value);
  EXPECT_GT(n, 0);
  EXPECT_LT(n, static_cast<int>(sizeof(buf)));
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string json_number(double value) {
  JsonWriter json;
  json.value(value);
  return json.str();
}

/// 2^16 seeded random bit patterns plus the edge values.
std::vector<double> inputs() {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::denorm_min(),
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                1e300,
                                1e70,
                                0.1,
                                0.5,
                                2.5,
                                1e-5,
                                123456789.0};
  std::mt19937_64 rng(20260417);
  for (int i = 0; i < (1 << 16); ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  // Where "%.17g" is computed in integers (about 1e-11 to 1e17), which
  // random bit patterns rarely reach: log-uniform magnitudes of either
  // sign, the powers of ten at and around its edges with their
  // neighbours, and exact ties at the 17th digit (multiples of 1/8
  // from 1e15 to 1e16).
  for (int i = 0; i < (1 << 15); ++i) {
    const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const double magnitude = std::pow(10.0, -13.0 + 31.0 * unit);
    values.push_back(i % 2 == 0 ? magnitude : -magnitude);
  }
  for (int e = -13; e <= 18; ++e) {
    const double power = std::pow(10.0, e);
    values.push_back(power);
    values.push_back(std::nextafter(power, 0.0));
    values.push_back(std::nextafter(power, 2.0 * power));
  }
  for (int i = 0; i < 1024; ++i) {
    values.push_back(
        std::floor(1e15 + static_cast<double>(rng() % 9000000000000000ull)) +
        static_cast<double>(i % 8) / 8.0);
  }
  return values;
}

/// Counts mismatches and keeps the first, so a defect reports one
/// readable line instead of thousands.
struct Mismatches {
  std::size_t count = 0;
  std::string first;

  void check(const std::string& got, const std::string& want,
             const std::string& what) {
    if (got == want) return;
    if (count++ == 0) first = what + ": got '" + got + "', want '" + want + "'";
  }
};

TEST(Format, JsonDoubleMatchesPrintf17g) {
  Mismatches mismatches;
  for (const double value : inputs()) {
    // JSON has no inf or nan: non-finite doubles are written as null.
    const std::string want = std::isfinite(value)
                                 ? printf_bytes("%.*g", 17, value)
                                 : std::string("null");
    mismatches.check(json_number(value), want, "%.17g");
  }
  EXPECT_EQ(mismatches.count, 0u) << mismatches.first;
}

TEST(Format, FixedMatchesPrintfAtEveryPrecision) {
  Mismatches mismatches;
  for (const double value : inputs()) {
    for (int precision = 0; precision <= 6; ++precision) {
      mismatches.check(format_fixed(value, precision),
                       printf_bytes("%.*f", precision, value),
                       "%." + std::to_string(precision) + "f");
    }
  }
  EXPECT_EQ(mismatches.count, 0u) << mismatches.first;
}

TEST(Format, CompactMatchesPrintfG) {
  Mismatches mismatches;
  for (const double value : inputs()) {
    for (const int digits : {6, 9, 17}) {
      // Zero of either sign prints as "0" (documented), where printf
      // would print "-0" for negative zero.
      const std::string want = value == 0.0
                                   ? std::string("0")
                                   : printf_bytes("%.*g", digits, value);
      mismatches.check(format_compact(value, digits), want,
                       "%." + std::to_string(digits) + "g");
    }
  }
  EXPECT_EQ(mismatches.count, 0u) << mismatches.first;
}

TEST(Format, FixedIsNeverCutShort) {
  // 1e70 has 71 integer digits: the whole number, the point and three
  // decimals, not the first 63 characters.
  const std::string text = format_fixed(1e70, 3);
  EXPECT_EQ(text, printf_bytes("%.*f", 3, 1e70));
  EXPECT_EQ(text.size(), 75u);
  EXPECT_EQ(text.substr(text.size() - 4), ".000");
  EXPECT_EQ(format_fixed(-DBL_MAX, 0).size(), 310u);
  // A precision past any stack buffer still prints every digit.
  EXPECT_EQ(format_fixed(DBL_MAX, 400), printf_bytes("%.*f", 400, DBL_MAX));
}

TEST(Format, AppendFormsExtendTheBuffer) {
  std::string out = "x=";
  append_fixed(out, 0.125, 2);
  out += ",y=";
  append_compact(out, 1e-7, 6);
  out += ",z=";
  append_compact(out, -0.0, 6);
  EXPECT_EQ(out, "x=0.12,y=1e-07,z=0");
}

}  // namespace
