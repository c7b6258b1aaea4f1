// The engine's request key: one 64-bit value that names a mapping problem
// (MappingEngine::Fingerprint in engine/mapping_engine.h, built with
// FingerprintBuilder).
//
// The mappers read a problem only through its Evaluator (paper §3: O(1)
// lookups of f_exec, f_icom and f_ecom at every processor count up to P,
// plus each module's memory minimum and replicability). The key is
// therefore built from what the Evaluator already holds — its per-task
// and per-edge content hashes, its min-procs and replicable range
// tables, k and P — folded together with the machine, option, objective,
// solver and floor fields of the request and the processor counts its
// resolved feasibility table admits. Two requests with
// equal keys present the solvers with identical inputs, so a cached,
// shared or disk-persisted answer is what a fresh solve would return by
// construction. A single flipped bit in any table entry always changes
// the key (support/hash.h).
//
// The same key names the solution cache entry, the single-flight flight
// and the disk tier's file.
//
// Keys are stable across processes and thread counts (the tables are
// bit-identical for every thread count). A request is uncacheable — key
// 0 — only when its Evaluator is untabulated (P above the tabulation
// limit, no content hashes).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/hash.h"
#include "support/trace_context.h"

namespace pipemap {

/// Typed key accumulator. Every Append folds a type tag before the
/// payload so adjacent fields cannot alias (e.g. the strings "ab" + "c"
/// vs "a" + "bc" hash differently).
class FingerprintBuilder {
 public:
  FingerprintBuilder& Append(std::string_view s) {
    hash_ = HashCombine(hash_, 's');
    hash_ = HashCombine(hash_, s.size());
    hash_ = HashCombine(hash_, Fnv1a64(s));
    return *this;
  }
  /// Without this overload a string literal would convert to bool
  /// (pointer-to-bool is a standard conversion and outranks the
  /// user-defined one to string_view) and silently hash as `true`.
  FingerprintBuilder& Append(const char* s) {
    return Append(std::string_view(s));
  }
  FingerprintBuilder& Append(std::uint64_t v) {
    hash_ = HashCombine(hash_, 'u');
    hash_ = HashCombine(hash_, v);
    return *this;
  }
  FingerprintBuilder& Append(std::int64_t v) {
    return Append(static_cast<std::uint64_t>(v));
  }
  FingerprintBuilder& Append(int v) {
    return Append(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  FingerprintBuilder& Append(bool v) {
    return Append(static_cast<std::uint64_t>(v ? 1 : 0));
  }
  /// Raw IEEE-754 bits: exact, so -0.0 and 0.0 are different keys.
  FingerprintBuilder& Append(double v) {
    hash_ = HashCombine(hash_, 'd');
    return Append(DoubleBits(v));
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv1aOffset;
};

/// Fingerprint rendered as fixed-width lowercase hex (16 characters), the
/// form used in provenance JSON, logs and cache file names: the same
/// rendering as a trace id.
inline std::string FingerprintHex(std::uint64_t fingerprint) {
  return FormatTraceId(fingerprint);
}

}  // namespace pipemap
