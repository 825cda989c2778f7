#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/check.h"

namespace dz {

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  DZ_CHECK_GE(p, 0.0);
  DZ_CHECK_LE(p, 100.0);
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double FractionWithin(const std::vector<double>& values, double threshold) {
  if (values.empty()) {
    return 0.0;
  }
  size_t ok = 0;
  for (double v : values) {
    if (v <= threshold) {
      ++ok;
    }
  }
  return static_cast<double>(ok) / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  DZ_CHECK_GT(bins, 0);
  DZ_CHECK_LT(lo, hi);
}

void Histogram::Add(double x) {
  DZ_CHECK(!std::isnan(x));  // a NaN sample has no bin
  const int n = static_cast<int>(counts_.size());
  // Clamp before the cast: a value far outside [lo, hi] does not fit an int.
  const double pos = (x - lo_) / (hi_ - lo_) * n;
  ++counts_[static_cast<int>(std::clamp(pos, 0.0, static_cast<double>(n - 1)))];
}

double Histogram::bin_lo(int i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / bins();
}

double Histogram::bin_hi(int i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i + 1) / bins();
}

std::string Histogram::ToAscii(int width) const {
  int max_count = 1;
  for (int c : counts_) {
    max_count = std::max(max_count, c);
  }
  std::ostringstream os;
  for (int i = 0; i < bins(); ++i) {
    const int bar = counts_[i] * width / max_count;
    os << "[";
    os.precision(4);
    os << bin_lo(i) << ", " << bin_hi(i) << ") ";
    for (int j = 0; j < bar; ++j) {
      os << '#';
    }
    os << " " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace dz
