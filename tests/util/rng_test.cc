#include "src/util/rng.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace dz {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(3);
  for (uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(n), n);
    }
  }
}

TEST(RngTest, NormalMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 2.5;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(RngTest, ZipfIsMonotoneSkewed) {
  Rng rng(19);
  const int n_models = 16;
  std::vector<int> counts(n_models, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[rng.Zipf(n_models, 1.5)];
  }
  // Rank-0 should dominate rank-3 and rank-3 dominate rank-15.
  EXPECT_GT(counts[0], counts[3] * 2);
  EXPECT_GT(counts[3], counts[15]);
}

TEST(RngTest, ZipfAlphaZeroIsUniform) {
  Rng rng(23);
  const int n_models = 8;
  std::vector<int> counts(n_models, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Zipf(n_models, 0.0)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / static_cast<double>(n_models), n * 0.01);
  }
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // Child stream should differ from parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace dz
