#include "machine/pathways.h"

#include <algorithm>
#include <numeric>

#include "support/error.h"

namespace pipemap {
namespace {

/// Dense per-link load counters for a rows x cols mesh.
struct LinkLoads {
  int rows, cols;
  std::vector<int> horizontal;  // link (r, c) -- (r, c+1)
  std::vector<int> vertical;    // link (r, c) -- (r+1, c)

  LinkLoads(int rows_in, int cols_in)
      : rows(rows_in),
        cols(cols_in),
        horizontal(static_cast<std::size_t>(rows) * std::max(0, cols - 1), 0),
        vertical(static_cast<std::size_t>(std::max(0, rows - 1)) * cols, 0) {}

  int& Horizontal(int r, int c) { return horizontal[r * (cols - 1) + c]; }
  int& Vertical(int r, int c) { return vertical[r * cols + c]; }

  /// Walks column-first then row-first from (r0,c0) to (r1,c1), adding one
  /// pathway to every traversed link.
  void Route(int r0, int c0, int r1, int c1) {
    int c = c0;
    while (c != c1) {
      const int step = c1 > c ? 1 : -1;
      Horizontal(r0, std::min(c, c + step)) += 1;
      c += step;
    }
    int r = r0;
    while (r != r1) {
      const int step = r1 > r ? 1 : -1;
      Vertical(std::min(r, r + step), c1) += 1;
      r += step;
    }
  }

  int Max() const {
    int m = 0;
    for (int v : horizontal) m = std::max(m, v);
    for (int v : vertical) m = std::max(m, v);
    return m;
  }
};

}  // namespace

std::vector<std::pair<int, int>> CommunicatingPairs(int r_up, int r_down) {
  PIPEMAP_CHECK(r_up >= 1 && r_down >= 1,
                "CommunicatingPairs: replica counts must be >= 1");
  const int period = std::lcm(r_up, r_down);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(period);
  for (int d = 0; d < period; ++d) {
    pairs.emplace_back(d % r_up, d % r_down);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

PathwayCheck CheckPathways(const Mapping& mapping,
                           const std::vector<InstancePlacement>& placements,
                           int rows, int cols, int capacity) {
  PIPEMAP_CHECK(capacity >= 1, "CheckPathways: capacity must be >= 1");
  // Index placements by (module, instance).
  std::vector<std::vector<const GridRect*>> rects(mapping.num_modules());
  for (int m = 0; m < mapping.num_modules(); ++m) {
    rects[m].assign(mapping.modules[m].replicas, nullptr);
  }
  for (const InstancePlacement& p : placements) {
    PIPEMAP_CHECK(p.module >= 0 && p.module < mapping.num_modules(),
                  "CheckPathways: placement for unknown module");
    PIPEMAP_CHECK(p.instance >= 0 &&
                      p.instance < mapping.modules[p.module].replicas,
                  "CheckPathways: placement for unknown instance");
    rects[p.module][p.instance] = &p.rect;
  }
  for (int m = 0; m < mapping.num_modules(); ++m) {
    for (const GridRect* r : rects[m]) {
      PIPEMAP_CHECK(r != nullptr, "CheckPathways: missing instance placement");
    }
  }

  // Every route stays inside the bounding box of its two endpoints, so
  // the links of the placements' bounding box are the only ones loaded:
  // count on that box, whatever the grid's size.
  int top = rows, left = cols, bottom = 0, right = 0;
  for (const InstancePlacement& p : placements) {
    PIPEMAP_CHECK(p.rect.row >= 0 && p.rect.col >= 0 &&
                      p.rect.height <= rows - p.rect.row &&
                      p.rect.width <= cols - p.rect.col,
                  "CheckPathways: placement outside the grid");
    top = std::min(top, p.rect.row);
    left = std::min(left, p.rect.col);
    bottom = std::max(bottom, p.rect.row + p.rect.height);
    right = std::max(right, p.rect.col + p.rect.width);
  }
  LinkLoads loads(std::max(0, bottom - top), std::max(0, right - left));
  PathwayCheck check;
  check.capacity = capacity;
  // Pathways terminate at individual cells; spreading the endpoints over
  // the rectangle (round-robin, row-major) models distinct per-pathway
  // termination cells and avoids artificially funnelling every pathway
  // through the rectangle's center.
  auto cell_of = [](const GridRect& r, int index) {
    const int area = r.height * r.width;
    const int i = index % area;
    return std::pair<int, int>{r.row + i / r.width, r.col + i % r.width};
  };
  for (int m = 0; m + 1 < mapping.num_modules(); ++m) {
    const auto pairs = CommunicatingPairs(mapping.modules[m].replicas,
                                          mapping.modules[m + 1].replicas);
    std::vector<int> src_use(mapping.modules[m].replicas, 0);
    std::vector<int> dst_use(mapping.modules[m + 1].replicas, 0);
    for (const auto& [a, b] : pairs) {
      const GridRect& src = *rects[m][a];
      const GridRect& dst = *rects[m + 1][b];
      const auto [r0, c0] = cell_of(src, src_use[a]++);
      const auto [r1, c1] = cell_of(dst, dst_use[b]++);
      loads.Route(r0 - top, c0 - left, r1 - top, c1 - left);
      ++check.pathways;
    }
  }
  check.max_link_load = loads.Max();
  check.ok = check.max_link_load <= capacity;
  return check;
}

}  // namespace pipemap
