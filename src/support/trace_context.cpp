#include "support/trace_context.h"

#include <atomic>
#include <chrono>

#include "support/hash.h"

namespace pipemap {
namespace {

std::uint64_t ProcessSeed() {
  static const std::uint64_t seed = SplitMix64(static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  return seed;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::uint64_t GenerateTraceId() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  // SplitMix64 is bijective, so distinct counter values never collide
  // under one seed. Masked to 63 bits: generated ids ride Tracer span
  // args, which are int64 with negative meaning "no arg" — a top-bit id
  // would vanish from the Chrome export and break the trace_join
  // correlation.
  const std::uint64_t id =
      SplitMix64(ProcessSeed() ^ n) & 0x7fffffffffffffffull;
  return id != 0 ? id : 1;  // 0 is the "unassigned" sentinel
}

std::string FormatTraceId(std::uint64_t trace_id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[trace_id & 0xF];
    trace_id >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> ParseTraceId(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    const int digit = HexDigit(c);
    if (digit < 0) return std::nullopt;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  if (value == 0) return std::nullopt;
  return value;
}

}  // namespace pipemap
