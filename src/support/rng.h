// Deterministic random number generation.
//
// All stochastic behaviour in pipemap (simulator noise, synthetic workload
// generation, training-set jitter) flows through Rng so that every
// experiment is exactly reproducible from a seed.
#pragma once

#include <cstdint>

namespace pipemap {

/// SplitMix64-seeded xoshiro256** generator.
///
/// Chosen over std::mt19937_64 because its state is 4 words (cheap to copy
/// per module instance in the simulator) and its output stream is identical
/// across standard library implementations, which std::uniform distributions
/// are not.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform random 64-bit value.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  /// Standard normal variate (Box–Muller, one value per call).
  double Gaussian();

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

 private:
  std::uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace pipemap
