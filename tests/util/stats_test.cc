#include "src/util/stats.h"

#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dz {
namespace {

// Per-bin counts as ToAscii prints them: the last field of each line.
std::vector<int> BinCounts(const Histogram& h) {
  std::vector<int> counts;
  std::istringstream lines(h.ToAscii());
  for (std::string line; std::getline(lines, line);) {
    counts.push_back(std::stoi(line.substr(line.rfind(' ') + 1)));
  }
  return counts;
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  // The sample count shows in the next Add: adding the mean keeps it and
  // scales the variance by n / (n + 1), here 4 / 5.
  s.Add(2.5);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  // With no samples counted, the first Add sets the mean outright.
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileTest, KnownValues) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenSamples) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 9.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(FractionWithinTest, CountsInclusive) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(FractionWithin(v, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(FractionWithin(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(FractionWithin(v, 4.0), 1.0);
}

TEST(HistogramTest, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);    // bin 0
  h.Add(9.99);   // bin 9
  h.Add(-5.0);   // clamped to bin 0
  h.Add(100.0);  // clamped to bin 9
  // Beyond an int once scaled to bins: clamped before any cast.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double x : {1e12, -1e12, kInf, -kInf}) {
    h.Add(x);
  }
  EXPECT_EQ(BinCounts(h), std::vector<int>({4, 0, 0, 0, 0, 0, 0, 0, 0, 4}));
  const std::vector<int> counts = BinCounts(h);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 8);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(HistogramDeathTest, NanHasNoBin) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DEATH(h.Add(std::numeric_limits<double>::quiet_NaN()), "isnan");
}

TEST(HistogramTest, AsciiRenders) {
  Histogram h(0.0, 1.0, 2);
  h.Add(0.1);
  h.Add(0.9);
  const std::string s = h.ToAscii();
  EXPECT_NE(s.find('#'), std::string::npos);
}

}  // namespace
}  // namespace dz
