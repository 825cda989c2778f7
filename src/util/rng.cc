#include "src/util/rng.h"

#include <cmath>

#include "src/util/check.h"

namespace dz {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64: seeds the xoshiro state from a single 64-bit value.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::NextBelow(uint64_t n) {
  DZ_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::Exponential(double rate) {
  DZ_CHECK_GT(rate, 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

int Rng::Zipf(int n, double alpha) {
  DZ_CHECK_GT(n, 0);
  // Direct inversion on the (small) normalized CDF; n is the number of model
  // variants (tens to hundreds), so O(n) is fine.
  double norm = 0.0;
  for (int i = 1; i <= n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i), alpha);
  }
  double u = NextDouble() * norm;
  double acc = 0.0;
  for (int i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i), alpha);
    if (u <= acc) {
      return i - 1;
    }
  }
  return n - 1;
}

int Rng::Categorical(const std::vector<double>& weights) {
  DZ_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    DZ_CHECK_GE(w, 0.0);
    total += w;
  }
  DZ_CHECK_GT(total, 0.0);
  double u = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u <= acc) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xA5A5A5A55A5A5A5Aull); }

}  // namespace dz
