// Rectangular subarray feasibility (paper Section 6.1).
//
// The Fx compiler maps each module instance onto a rectangular subarray of
// the processor grid, so a processor count p is usable only if p = a*b with
// a <= grid_rows and b <= grid_cols. On an 8x8 array this excludes e.g.
// 11, 13, 17, ... — the reason the paper's Table 1 "feasible optimal"
// mapping for 512x512/systolic drops module 2 from 13 to 12 processors.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace pipemap {

/// All (height, width) factorizations of `procs` that fit an rows x cols
/// grid, sorted by ascending height. Empty if none fit.
std::vector<std::pair<int, int>> RectFactorizations(int procs, int rows,
                                                    int cols);

/// True iff some rectangle of area `procs` fits the grid.
bool IsRectFeasible(int procs, int rows, int cols);

/// Sorted rectangle-feasible processor counts up to `max_count`: the areas
/// h x w <= max_count with h <= rows, w <= cols. O(n log n) time and O(n)
/// memory for n = min(rows x cols, max_count), whatever the grid's size.
std::vector<int> FeasibleProcCounts(
    int rows, int cols, int max_count = std::numeric_limits<int>::max());

}  // namespace pipemap
