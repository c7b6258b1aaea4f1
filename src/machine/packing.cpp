#include "machine/packing.h"

#include <algorithm>
#include <cstdint>

#include "machine/rect.h"
#include "support/error.h"
#include "support/metrics.h"

namespace pipemap {
namespace {

// Every placement anchors at the topmost-leftmost free cell, so the
// occupied cells of each column are a top prefix: one height per column
// is the whole grid. The first free cell tops the leftmost lowest column,
// and an h x w rectangle fits there iff the columns to its right at that
// height run at least w wide and h rows are left below it.
struct SearchState {
  int rows = 0;
  std::vector<int> height;              // per column: occupied top rows
  std::vector<int> remaining;           // instances left per module
  std::vector<std::vector<std::pair<int, int>>> factorizations;  // per module
  std::vector<InstancePlacement> placements;
  int unplaced = 0;  // sum of remaining
  std::int64_t waste_left = 0;
  std::uint64_t nodes = 0;
  std::uint64_t max_nodes = 0;
  bool hit_cap = false;

  void Fill(int c, int w, int h) {
    std::fill(height.begin() + c, height.begin() + c + w, h);
  }

  bool Solve() {
    if (++nodes > max_nodes) {
      hit_cap = true;
      return false;
    }
    // Free cells are the unplaced area plus waste_left, so a grid with
    // nothing unplaced is the only one that can be full.
    if (unplaced == 0) return true;  // leftover cells are idle
    const int cols = static_cast<int>(height.size());
    const int c = static_cast<int>(
        std::min_element(height.begin(), height.end()) - height.begin());
    const int r = height[c];
    int run = 1;
    while (c + run < cols && height[c + run] == r) ++run;

    // The free cell must be covered by some remaining instance anchored
    // here, or declared wasted.
    for (std::size_t m = 0; m < remaining.size(); ++m) {
      if (remaining[m] == 0) continue;
      for (const auto& [h, w] : factorizations[m]) {
        if (w > run || h > rows - r) continue;
        Fill(c, w, r + h);
        --remaining[m];
        --unplaced;
        placements.push_back(InstancePlacement{
            static_cast<int>(m), remaining[m], GridRect{r, c, h, w}});
        if (Solve()) return true;
        placements.pop_back();
        ++unplaced;
        ++remaining[m];
        Fill(c, w, r);
        if (hit_cap) return false;
      }
    }

    // Declare this cell idle, if the waste budget allows.
    if (waste_left > 0) {
      height[c] = r + 1;
      --waste_left;
      if (Solve()) return true;
      ++waste_left;
      height[c] = r;
    }
    return false;
  }
};

}  // namespace

PackResult PackInstances(const Mapping& mapping, int rows, int cols,
                         std::uint64_t max_nodes) {
  PIPEMAP_CHECK(rows >= 1 && cols >= 1, "PackInstances: grid must be non-empty");
  PIPEMAP_COUNTER_ADD("machine.pack_searches", 1);
  SearchState st;
  st.rows = rows;
  st.max_nodes = max_nodes;

  // 64-bit areas: a wire grid's area need not fit an int.
  std::int64_t total_area = 0;
  for (const ModuleAssignment& m : mapping.modules) {
    st.remaining.push_back(m.replicas);
    st.unplaced += m.replicas;
    auto facts = RectFactorizations(m.procs_per_instance, rows, cols);
    if (facts.empty()) {
      return PackResult{false, {}, 0, false};
    }
    // Prefer squarer rectangles: they obstruct the remaining space least.
    std::sort(facts.begin(), facts.end(), [](const auto& a, const auto& b) {
      return std::abs(a.first - a.second) < std::abs(b.first - b.second);
    });
    st.factorizations.push_back(std::move(facts));
    total_area += std::int64_t{m.replicas} * m.procs_per_instance;
  }
  if (total_area > std::int64_t{rows} * cols) {
    return PackResult{false, {}, 0, false};
  }
  // A row at least as wide as the instances' total area takes every
  // instance in row 0 at its first factorization, left to right, on any
  // such width: search the narrowest, so the skyline costs what the
  // mapping costs, not what the grid does.
  const int search_cols =
      static_cast<int>(std::min<std::int64_t>(cols, total_area));
  st.height.assign(static_cast<std::size_t>(search_cols), 0);
  st.waste_left = std::int64_t{rows} * search_cols - total_area;

  PackResult result;
  result.success = st.Solve();
  result.nodes = st.nodes;
  result.hit_node_cap = st.hit_cap;
  if (result.success) result.placements = std::move(st.placements);
  PIPEMAP_COUNTER_ADD("machine.pack_nodes", st.nodes);
  if (st.hit_cap) PIPEMAP_COUNTER_ADD("machine.pack_gave_up", 1);
  return result;
}

}  // namespace pipemap
