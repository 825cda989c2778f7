#include "src/tensor/half.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace dz {
namespace {

TEST(HalfTest, ExactSmallValues) {
  // Values exactly representable in binary16 must round-trip bit-exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -2.0f, 1024.0f, 0.25f, 65504.0f}) {
    EXPECT_EQ(RoundToHalf(v), v) << v;
  }
}

TEST(HalfTest, KnownBitPatterns) {
  EXPECT_EQ(FloatToHalfBits(0.0f), 0x0000);
  EXPECT_EQ(FloatToHalfBits(-0.0f), 0x8000);
  EXPECT_EQ(FloatToHalfBits(1.0f), 0x3C00);
  EXPECT_EQ(FloatToHalfBits(-2.0f), 0xC000);
  EXPECT_EQ(FloatToHalfBits(65504.0f), 0x7BFF);  // max finite half
}

TEST(HalfTest, OverflowSaturatesToInf) {
  EXPECT_EQ(FloatToHalfBits(1e30f), 0x7C00);
  EXPECT_EQ(FloatToHalfBits(-1e30f), 0xFC00);
  EXPECT_TRUE(std::isinf(HalfBitsToFloat(0x7C00)));
}

TEST(HalfTest, NanPreserved) {
  const uint16_t h = FloatToHalfBits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(HalfBitsToFloat(h)));
}

TEST(HalfTest, SubnormalsRoundTrip) {
  // Smallest positive subnormal half = 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(RoundToHalf(tiny), tiny);
  // Below half of the smallest subnormal rounds to zero.
  EXPECT_EQ(RoundToHalf(std::ldexp(1.0f, -26)), 0.0f);
}

TEST(HalfTest, RoundTripIdempotent) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.Normal(0.0, 10.0));
    const float once = RoundToHalf(v);
    EXPECT_EQ(RoundToHalf(once), once);  // fp16 values are fixed points
  }
}

TEST(HalfTest, RelativeErrorBounded) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.Uniform(-1000.0, 1000.0));
    if (std::abs(v) < 1e-3f) {
      continue;
    }
    const float r = RoundToHalf(v);
    // binary16 has 11 significand bits → max rel error 2^-11.
    EXPECT_LE(std::abs(r - v) / std::abs(v), std::ldexp(1.0f, -11) + 1e-7f) << v;
  }
}

TEST(HalfTest, BitsRoundTrip) {
  const uint16_t bits = FloatToHalfBits(3.5f);
  EXPECT_EQ(HalfBitsToFloat(bits), 3.5f);
  EXPECT_EQ(FloatToHalfBits(HalfBitsToFloat(bits)), bits);
}

}  // namespace
}  // namespace dz
