// Non-cryptographic 64-bit hashing: FNV-1a over byte strings, a
// word-at-a-time mix over tables of doubles, and splitmix64 over single
// words.
//
// FNV-1a is the byte hash (the disk tier's payload checksum, short
// strings inside engine keys). The word mix hashes the Evaluator's cost
// tables, which are tens of thousands of doubles per request: it consumes
// one 64-bit word per step in four independent lanes (an xxHash64-style
// round, multiply-rotate-multiply) and finishes with a murmur3 avalanche,
// so every input bit reaches every output bit. Every step is a bijection
// of its lane given the word, and of the word given the lane, so tables
// that differ in any single word — one flipped sign, exponent or mantissa
// bit — always hash differently; wider differences collide with
// probability ~2^-64. Neither hash resists deliberate collisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace pipemap {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// FNV-1a over `data`, continuing from `seed` so fragments chain.
constexpr std::uint64_t Fnv1a64(std::string_view data,
                                std::uint64_t seed = kFnv1aOffset) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

inline constexpr std::uint64_t kMixPrime1 = 0x9e3779b185ebca87ull;
inline constexpr std::uint64_t kMixPrime2 = 0xc2b2ae3d27d4eb4full;

/// One lane step: bijective in `acc` for a fixed `word` and in `word` for
/// a fixed `acc`.
constexpr std::uint64_t MixRound(std::uint64_t acc, std::uint64_t word) {
  acc += word * kMixPrime2;
  acc = (acc << 31) | (acc >> 33);
  return acc * kMixPrime1;
}

/// Murmur3's 64-bit finalizer: a bijection with full avalanche.
constexpr std::uint64_t Avalanche(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// splitmix64: the golden-ratio increment, then its finalizer. A
/// bijection with full avalanche: it seeds Rng's state, decides chaos
/// draws and scrambles generated trace ids.
constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Folds `v` into the running hash `h`; bijective in each argument.
constexpr std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  return Avalanche(MixRound(h, v));
}

inline std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Hashes `n` doubles by bit pattern (so -0.0 != 0.0 and NaNs are stable).
inline std::uint64_t HashDoubles(const double* data, std::size_t n) {
  std::uint64_t lane[4] = {kMixPrime1 + kMixPrime2, kMixPrime2, 0,
                           0 - kMixPrime1};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int j = 0; j < 4; ++j) {
      lane[j] = MixRound(lane[j], DoubleBits(data[i + j]));
    }
  }
  std::uint64_t h = HashCombine(kFnv1aOffset, n);
  for (const std::uint64_t l : lane) h = HashCombine(h, l);
  for (; i < n; ++i) h = HashCombine(h, DoubleBits(data[i]));
  return h;
}

}  // namespace pipemap
