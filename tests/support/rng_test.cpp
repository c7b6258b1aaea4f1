#include "support/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/error.h"
#include "support/hash.h"

namespace pipemap {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, SplitMix64MatchesTheReferenceStream) {
  // The published splitmix64 stream from state 0.
  static_assert(SplitMix64(0) == 0xe220a8397b1dcdafull);
  static_assert(SplitMix64(kSplitMix64Gamma) == 0x6e789e6aa1b965f4ull);
  static_assert(SplitMix64(2 * kSplitMix64Gamma) == 0x06c45d188009454full);
}

TEST(RngTest, SeedFortyTwoStreamIsPinned) {
  // Rng seeds MakeSynthetic, so every synthetic chain (cold_dp's
  // included) and many tests' inputs hang on these exact values.
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 0x15780b2e0c2ec716ull);
  EXPECT_EQ(rng.NextU64(), 0x6104d9866d113a7eull);
  EXPECT_EQ(rng.NextU64(), 0xae17533239e499a1ull);
  EXPECT_EQ(rng.NextU64(), 0xecb8ad4703b360a1ull);
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-3.5, 2.25);
    EXPECT_GE(x, -3.5);
    EXPECT_LT(x, 2.25);
  }
}

TEST(RngTest, UniformRejectsInvertedBounds) {
  Rng rng(9);
  EXPECT_THROW(rng.Uniform(1.0, 0.0), InvalidArgument);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.UniformInt(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntSingletonRange) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(4, 4), 4);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParameters) {
  Rng rng(14);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

}  // namespace
}  // namespace pipemap
