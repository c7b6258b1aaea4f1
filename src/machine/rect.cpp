#include "machine/rect.h"

#include <algorithm>
#include <cstdint>

#include "support/error.h"

namespace pipemap {

std::vector<std::pair<int, int>> RectFactorizations(int procs, int rows,
                                                    int cols) {
  PIPEMAP_CHECK(procs >= 1, "RectFactorizations: procs must be >= 1");
  PIPEMAP_CHECK(rows >= 1 && cols >= 1,
                "RectFactorizations: grid must be non-empty");
  std::vector<std::pair<int, int>> out;
  // A factor of `procs` is at most `procs`, so a tall grid costs nothing
  // extra; 64-bit `h` cannot wrap when the bound is INT_MAX.
  for (std::int64_t h = 1; h <= std::min(rows, procs); ++h) {
    if (procs % h != 0) continue;
    const std::int64_t w = procs / h;
    if (w <= cols) out.emplace_back(static_cast<int>(h), static_cast<int>(w));
  }
  return out;
}

bool IsRectFeasible(int procs, int rows, int cols) {
  return !RectFactorizations(procs, rows, cols).empty();
}

std::vector<int> FeasibleProcCounts(int rows, int cols, int max_count) {
  PIPEMAP_CHECK(rows >= 1 && cols >= 1,
                "FeasibleProcCounts: grid must be non-empty");
  // 64-bit throughout: rows * cols overflows int on large grids.
  const std::int64_t limit = std::min<std::int64_t>(
      std::int64_t{rows} * cols, std::max(max_count, 0));
  std::vector<char> area(static_cast<std::size_t>(limit) + 1, 0);
  for (std::int64_t h = 1; h <= std::min<std::int64_t>(rows, limit); ++h) {
    const std::int64_t widths = std::min<std::int64_t>(cols, limit / h);
    for (std::int64_t w = 1; w <= widths; ++w) area[h * w] = 1;
  }
  std::vector<int> counts;
  for (std::int64_t p = 1; p <= limit; ++p) {
    if (area[p] != 0) counts.push_back(static_cast<int>(p));
  }
  return counts;
}

}  // namespace pipemap
