// Cache-line padding for data that neighbouring workers write.
//
// The parallel stage sweeps keep per-worker accumulators and per-row
// flags that different workers update concurrently; false sharing between
// adjacent slots costs real throughput at this problem shape. Padding each
// slot to its own 64-byte line keeps those writes apart.
#pragma once

#include <cstddef>

namespace pipemap {

inline constexpr std::size_t kCacheLineBytes = 64;

/// One T per worker, each on its own cache line, so concurrent updates to
/// neighbouring slots never bounce a line between cores.
template <typename T>
struct alignas(kCacheLineBytes) CacheLinePadded {
  T value{};
};

}  // namespace pipemap
