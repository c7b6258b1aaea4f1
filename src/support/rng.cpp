#include "support/rng.h"

#include <cmath>

#include "support/error.h"
#include "support/hash.h"

namespace pipemap {
namespace {

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // The first four outputs of the splitmix64 stream that starts at `seed`.
  for (auto& s : s_) {
    s = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  PIPEMAP_CHECK(lo <= hi, "Uniform: lo must not exceed hi");
  return lo + (hi - lo) * NextDouble();
}

int Rng::UniformInt(int lo, int hi) {
  PIPEMAP_CHECK(lo <= hi, "UniformInt: lo must not exceed hi");
  const auto range = static_cast<std::uint64_t>(hi) - lo + 1;
  return lo + static_cast<int>(NextU64() % range);
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

}  // namespace pipemap
