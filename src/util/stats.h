// Descriptive statistics helpers shared by the evaluation harness and benches.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dz {

// Streaming mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Percentile of a sample set (linear interpolation). p in [0, 100].
double Percentile(std::vector<double> values, double p);

// Fraction of values <= threshold; used for SLO attainment curves.
double FractionWithin(const std::vector<double>& values, double threshold);

// Fixed-bin histogram over [lo, hi]; values outside, infinities included, are
// clamped into edge bins. Adding NaN fails a DZ_CHECK.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void Add(double x);
  int bins() const { return static_cast<int>(counts_.size()); }
  double bin_lo(int i) const;
  double bin_hi(int i) const;

  // Renders a compact ASCII bar chart (for bench output).
  std::string ToAscii(int width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<int> counts_;
};

}  // namespace dz

#endif  // SRC_UTIL_STATS_H_
