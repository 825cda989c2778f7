// Deterministic random number generation for the whole library.
//
// Rng wraps xoshiro256** (public-domain algorithm by Blackman & Vigna) and layers the
// distributions the workload generators and trainers need: uniform, normal, exponential,
// Zipf, categorical, permutation. Every component takes an explicit seed so all
// experiments are reproducible bit-for-bit across runs.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dz {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Raw 64 random bits.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Standard normal via Box-Muller (cached second sample).
  double Normal();
  double Normal(double mean, double stddev);

  // Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  // Samples index in [0, n) with probability proportional to 1/(i+1)^alpha.
  // Used for skewed model-popularity distributions.
  int Zipf(int n, double alpha);

  // Samples index with probability proportional to weights[i]. Weights must be
  // non-negative and not all zero.
  int Categorical(const std::vector<double>& weights);

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  // Derives an independent child generator (for per-model / per-layer streams).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dz

#endif  // SRC_UTIL_RNG_H_
