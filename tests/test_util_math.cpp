#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "hmcs/util/error.hpp"
#include "hmcs/util/math_util.hpp"

namespace {

using namespace hmcs;

TEST(CeilDiv, ExactDivision) {
  EXPECT_EQ(ceil_div(12, 4), 3u);
  EXPECT_EQ(ceil_div(24, 24), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(CeilDiv, RoundsUp) {
  EXPECT_EQ(ceil_div(13, 4), 4u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(25, 24), 2u);
  EXPECT_EQ(ceil_div(255, 2), 128u);
}

TEST(CeilDiv, ZeroDivisorYieldsZero) { EXPECT_EQ(ceil_div(5, 0), 0u); }

TEST(CeilDiv, LargeValues) {
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max() - 1;
  EXPECT_EQ(ceil_div(big, big), 1u);
}

TEST(IsPowerOfTwo, Basics) {
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_TRUE(is_power_of_two(1ULL << 63));
  EXPECT_FALSE(is_power_of_two((1ULL << 63) + 1));
}

TEST(CeilLog, MatchesDefinition) {
  // Smallest e with base^e >= x.
  EXPECT_EQ(ceil_log(2, 1), 0u);
  EXPECT_EQ(ceil_log(2, 2), 1u);
  EXPECT_EQ(ceil_log(2, 3), 2u);
  EXPECT_EQ(ceil_log(2, 8), 3u);
  EXPECT_EQ(ceil_log(2, 9), 4u);
  EXPECT_EQ(ceil_log(12, 8), 1u);    // fat-tree d=1 case (N=16, Pr=24)
  EXPECT_EQ(ceil_log(12, 128), 2u);  // fat-tree d=2 case (N=256, Pr=24)
  EXPECT_EQ(ceil_log(4, 8), 2u);     // paper's worked example (N=16, Pr=8)
}

TEST(CeilLog, RejectsBadInput) {
  EXPECT_THROW(ceil_log(1, 5), ConfigError);
  EXPECT_THROW(ceil_log(2, 0), ConfigError);
}

TEST(CeilLog, HugeInputDoesNotOverflow) {
  EXPECT_EQ(ceil_log(2, std::numeric_limits<std::uint64_t>::max()), 64u);
}

TEST(ApproxEqual, ToleratesRelativeError) {
  EXPECT_TRUE(approx_equal(1.0, 1.0));
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(1.0, 1.001, 1e-2));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
  EXPECT_TRUE(approx_equal(1e-15, 0.0));  // under the absolute floor
}

TEST(ApproxEqual, Symmetric) {
  EXPECT_EQ(approx_equal(3.0, 3.1, 0.05), approx_equal(3.1, 3.0, 0.05));
}

TEST(RelativeError, Basics) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(9.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(relative_error(1.0, 0.0)));
}

TEST(Error, MessageCallableRunsOnlyOnFailure) {
  int built = 0;
  const auto message = [&] {
    ++built;
    return std::string("built ") + std::to_string(built);
  };
  require(true, message);
  ensure(true, message);
  EXPECT_EQ(built, 0);

  try {
    require(false, message);
    FAIL() << "require(false, ...) returned";
  } catch (const ConfigError& error) {
    EXPECT_TRUE(std::string(error.what()).ends_with(": built 1"));
  }
  try {
    ensure(false, message);
    FAIL() << "ensure(false, ...) returned";
  } catch (const LogicError& error) {
    EXPECT_TRUE(std::string(error.what()).ends_with(": built 2"));
  }
  EXPECT_EQ(built, 2);
}

}  // namespace
