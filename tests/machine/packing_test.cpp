#include "machine/packing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/mapping_engine.h"
#include "machine/rect.h"
#include "support/error.h"
#include "support/rng.h"
#include "workloads/synthetic.h"

namespace pipemap {
namespace {

// The byte-grid packer the column skyline replaced, kept verbatim as the
// reference: the skyline must visit the same nodes in the same order.
struct SearchState {
  int rows = 0;
  int cols = 0;
  std::vector<char> occupied;           // rows * cols
  std::vector<int> remaining;           // instances left per module
  std::vector<std::vector<std::pair<int, int>>> factorizations;  // per module
  std::vector<InstancePlacement> placements;
  int waste_left = 0;
  std::uint64_t nodes = 0;
  std::uint64_t max_nodes = 0;
  bool hit_cap = false;

  bool Occupied(int r, int c) const { return occupied[r * cols + c] != 0; }

  bool CanPlace(int r, int c, int h, int w) const {
    if (r + h > rows || c + w > cols) return false;
    for (int rr = r; rr < r + h; ++rr) {
      for (int cc = c; cc < c + w; ++cc) {
        if (Occupied(rr, cc)) return false;
      }
    }
    return true;
  }

  void Fill(int r, int c, int h, int w, char v) {
    for (int rr = r; rr < r + h; ++rr) {
      for (int cc = c; cc < c + w; ++cc) {
        occupied[rr * cols + cc] = v;
      }
    }
  }

  bool Solve() {
    if (++nodes > max_nodes) {
      hit_cap = true;
      return false;
    }
    // Find the topmost-leftmost free cell; it must be covered by some
    // remaining instance anchored here, or declared wasted.
    int free_r = -1, free_c = -1;
    for (int idx = 0; idx < rows * cols; ++idx) {
      if (!occupied[idx]) {
        free_r = idx / cols;
        free_c = idx % cols;
        break;
      }
    }
    if (free_r < 0) {
      // Grid full; success iff nothing remains.
      return std::all_of(remaining.begin(), remaining.end(),
                         [](int r) { return r == 0; });
    }
    if (std::all_of(remaining.begin(), remaining.end(),
                    [](int r) { return r == 0; })) {
      return true;  // all instances placed; leftover cells are idle
    }

    for (std::size_t m = 0; m < remaining.size(); ++m) {
      if (remaining[m] == 0) continue;
      for (const auto& [h, w] : factorizations[m]) {
        if (!CanPlace(free_r, free_c, h, w)) continue;
        Fill(free_r, free_c, h, w, 1);
        --remaining[m];
        placements.push_back(InstancePlacement{
            static_cast<int>(m), remaining[m],
            GridRect{free_r, free_c, h, w}});
        if (Solve()) return true;
        placements.pop_back();
        ++remaining[m];
        Fill(free_r, free_c, h, w, 0);
        if (hit_cap) return false;
      }
    }

    // Declare this cell idle, if the waste budget allows.
    if (waste_left > 0) {
      occupied[free_r * cols + free_c] = 2;
      --waste_left;
      if (Solve()) return true;
      ++waste_left;
      occupied[free_r * cols + free_c] = 0;
    }
    return false;
  }
};

PackResult LegacyPackInstances(const Mapping& mapping, int rows, int cols,
                               std::uint64_t max_nodes) {
  PIPEMAP_CHECK(rows >= 1 && cols >= 1, "PackInstances: grid must be non-empty");
  SearchState st;
  st.rows = rows;
  st.cols = cols;
  st.occupied.assign(static_cast<std::size_t>(rows) * cols, 0);
  st.max_nodes = max_nodes;

  int total_area = 0;
  for (const ModuleAssignment& m : mapping.modules) {
    st.remaining.push_back(m.replicas);
    auto facts = RectFactorizations(m.procs_per_instance, rows, cols);
    if (facts.empty()) {
      return PackResult{false, {}, 0, false};
    }
    // Prefer squarer rectangles: they obstruct the remaining space least.
    std::sort(facts.begin(), facts.end(), [](const auto& a, const auto& b) {
      return std::abs(a.first - a.second) < std::abs(b.first - b.second);
    });
    st.factorizations.push_back(std::move(facts));
    total_area += m.total_procs();
  }
  if (total_area > rows * cols) {
    return PackResult{false, {}, 0, false};
  }
  st.waste_left = rows * cols - total_area;

  PackResult result;
  result.success = st.Solve();
  result.nodes = st.nodes;
  result.hit_node_cap = st.hit_cap;
  if (result.success) result.placements = std::move(st.placements);
  return result;
}


Mapping MakeMapping(std::vector<std::pair<int, int>> replicas_procs) {
  Mapping m;
  int task = 0;
  for (const auto& [r, p] : replicas_procs) {
    m.modules.push_back(ModuleAssignment{task, task, r, p});
    ++task;
  }
  return m;
}

/// Placements must be within bounds, have the right areas, and not overlap.
void CheckPlacements(const Mapping& mapping, const PackResult& result,
                     int rows, int cols) {
  ASSERT_TRUE(result.success);
  std::size_t expected = 0;
  for (const ModuleAssignment& m : mapping.modules) expected += m.replicas;
  ASSERT_EQ(result.placements.size(), expected);

  std::vector<char> occupied(rows * cols, 0);
  for (const InstancePlacement& p : result.placements) {
    const GridRect& r = p.rect;
    EXPECT_EQ(r.height * r.width,
              mapping.modules[p.module].procs_per_instance);
    ASSERT_GE(r.row, 0);
    ASSERT_GE(r.col, 0);
    ASSERT_LE(r.row + r.height, rows);
    ASSERT_LE(r.col + r.width, cols);
    for (int rr = r.row; rr < r.row + r.height; ++rr) {
      for (int cc = r.col; cc < r.col + r.width; ++cc) {
        EXPECT_EQ(occupied[rr * cols + cc], 0) << "overlap at " << rr << ","
                                               << cc;
        occupied[rr * cols + cc] = 1;
      }
    }
  }
}

TEST(PackingTest, PerfectTilingOfFullGrid) {
  // 8 instances of 1x8 rows fill an 8x8 grid exactly.
  const Mapping m = MakeMapping({{8, 8}});
  const PackResult r = PackInstances(m, 8, 8);
  CheckPlacements(m, r, 8, 8);
}

TEST(PackingTest, PaperTableOneMapping) {
  // FFT-Hist 256/message: 8 instances of 3 + 10 instances of 4 = 64 procs.
  const Mapping m = MakeMapping({{8, 3}, {10, 4}});
  const PackResult r = PackInstances(m, 8, 8);
  CheckPlacements(m, r, 8, 8);
}

TEST(PackingTest, PartialOccupancyLeavesIdleCells) {
  const Mapping m = MakeMapping({{2, 6}, {1, 9}});
  const PackResult r = PackInstances(m, 8, 8);
  CheckPlacements(m, r, 8, 8);
}

TEST(PackingTest, FailsWhenAreaExceedsGrid) {
  const Mapping m = MakeMapping({{9, 8}});  // 72 > 64
  EXPECT_FALSE(PackInstances(m, 8, 8).success);
}

TEST(PackingTest, FailsWhenNoRectangleFits) {
  const Mapping m = MakeMapping({{1, 13}});  // prime > 8
  EXPECT_FALSE(PackInstances(m, 8, 8).success);
}

TEST(PackingTest, FailsOnGeometricObstruction) {
  // Area fits (2 * 2*2 = 8 <= 9) but a 3x3 grid cannot host two 2x2
  // rectangles plus a 1x5... actually two 2x2s fit in 3x3? 2x2 at (0,0) and
  // 2x2 needs another 2x2 region: remaining cells form an L of width 1 —
  // impossible.
  const Mapping m = MakeMapping({{2, 4}});
  const PackResult r = PackInstances(m, 3, 3);
  EXPECT_FALSE(r.success);
}

TEST(PackingTest, SucceedsWithMixedOrientations) {
  // 1x4 and 4x1 rectangles must coexist: 4 instances of 4 on a 4x4 grid.
  const Mapping m = MakeMapping({{4, 4}});
  const PackResult r = PackInstances(m, 4, 4);
  CheckPlacements(m, r, 4, 4);
}

TEST(PackingTest, NodeCapReportsGiveUp) {
  const Mapping m = MakeMapping({{8, 3}, {10, 4}});
  const PackResult r = PackInstances(m, 8, 8, /*max_nodes=*/1);
  if (!r.success) {
    EXPECT_TRUE(r.hit_node_cap);
  }
}

TEST(PackingTest, SingleCellInstances) {
  const Mapping m = MakeMapping({{5, 1}});
  const PackResult r = PackInstances(m, 2, 3);
  CheckPlacements(m, r, 2, 3);
}

// Property sweep: random-ish feasible instance sets always pack on a grid
// with ample slack, and placements are disjoint.
class PackingSweep : public ::testing::TestWithParam<int> {};

TEST_P(PackingSweep, FeasibleSetsPack) {
  const int n = GetParam();
  // n instances of area 2 plus one of area n: total 2n + n <= 48 slack on
  // an 8x8 grid for n <= 12. (11 and 13 are skipped by the range: primes
  // above the grid side have no rectangle at all.)
  const Mapping m = MakeMapping({{n, 2}, {1, n}});
  const PackResult r = PackInstances(m, 8, 8);
  CheckPlacements(m, r, 8, 8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackingSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           12));

/// PackInstances answers exactly as the byte-grid reference: outcome,
/// node count, give-up flag and every placement. Returns the answer.
PackResult ExpectSameAsLegacy(const Mapping& mapping, int rows, int cols,
                              std::uint64_t cap) {
  const PackResult want = LegacyPackInstances(mapping, rows, cols, cap);
  const PackResult got = PackInstances(mapping, rows, cols, cap);
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.hit_node_cap, want.hit_node_cap);
  EXPECT_EQ(got.placements.size(), want.placements.size());
  const std::size_t n = std::min(got.placements.size(), want.placements.size());
  for (std::size_t i = 0; i < n; ++i) {
    const InstancePlacement& g = got.placements[i];
    const InstancePlacement& w = want.placements[i];
    EXPECT_EQ(g.module, w.module) << "placement " << i;
    EXPECT_EQ(g.instance, w.instance) << "placement " << i;
    EXPECT_EQ(g.rect.row, w.rect.row) << "placement " << i;
    EXPECT_EQ(g.rect.col, w.rect.col) << "placement " << i;
    EXPECT_EQ(g.rect.height, w.rect.height) << "placement " << i;
    EXPECT_EQ(g.rect.width, w.rect.width) << "placement " << i;
  }
  return got;
}

/// One to four modules whose instances cover 60% to a little over 100% of
/// the grid, so sets pack, fail, and run into every cap.
Mapping RandomInstanceSet(Rng& rng, int rows, int cols) {
  const int cells = rows * cols;
  const int target = rng.UniformInt(cells * 3 / 5, cells + 2);
  const int modules = rng.UniformInt(1, 4);
  Mapping m;
  int used = 0;
  for (int i = 0; i < modules && used < target; ++i) {
    const int left = target - used;
    const int procs = rng.UniformInt(1, std::max(1, left / 2));
    const int most = std::max(1, left / procs);
    const int replicas = i + 1 == modules ? most : rng.UniformInt(1, most);
    m.modules.push_back(ModuleAssignment{i, i, replicas, procs});
    used += replicas * procs;
  }
  return m;
}

TEST(PackingDifferentialTest, RandomInstanceSetsMatchTheByteGrid) {
  const std::pair<int, int> grids[] = {{1, 7}, {7, 1}, {3, 3}, {4, 4},
                                       {8, 8}, {12, 11}, {5, 13}};
  const std::uint64_t caps[] = {1, 2, 50, 1'000, 200'000};
  Rng rng(20260705);
  int packed = 0, failed = 0, capped = 0;
  for (const auto& [rows, cols] : grids) {
    for (int set = 0; set < 40; ++set) {
      const Mapping mapping = RandomInstanceSet(rng, rows, cols);
      for (const std::uint64_t cap : caps) {
        SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                     " set " + std::to_string(set) + " cap " +
                     std::to_string(cap));
        const PackResult r = ExpectSameAsLegacy(mapping, rows, cols, cap);
        packed += r.success;
        capped += r.hit_node_cap;
        failed += !r.success && !r.hit_node_cap;
      }
    }
  }
  EXPECT_GT(packed, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(capped, 0);
}

TEST(PackingDifferentialTest, WideGridsMatchTheByteGrid) {
  // Grids at least as wide as the instances' total area: the search may
  // narrow to that area, and must still answer as the full byte grid.
  Rng rng(20261020);
  for (int set = 0; set < 500; ++set) {
    Mapping mapping;
    int area = 0;
    const int modules = rng.UniformInt(1, 6);
    for (int i = 0; i < modules; ++i) {
      const int replicas = rng.UniformInt(1, 4);
      const int procs = rng.UniformInt(1, 12);
      mapping.modules.push_back(ModuleAssignment{i, i, replicas, procs});
      area += replicas * procs;
    }
    const int rows = rng.UniformInt(1, 12);
    for (const int cols : {area, area + 1, rng.UniformInt(area, area + 199),
                           area + 199}) {
      SCOPED_TRACE("set " + std::to_string(set) + " grid " +
                   std::to_string(rows) + "x" + std::to_string(cols));
      ExpectSameAsLegacy(mapping, rows, cols, 3);
      ExpectSameAsLegacy(mapping, rows, cols, 200'000);
    }
  }
}

TEST(PackingDifferentialTest, SyntheticDpMappingsMatchTheByteGrid) {
  // cold_dp-shaped requests (k=10, P=128 on a 12x11 grid): each DP
  // mapping and every one-replica reduction of it, as MakeFeasible's
  // search would try them. Seeds 9 and 12 run into the default cap.
  workloads::SyntheticSpec spec;
  spec.num_tasks = 10;
  spec.machine_procs = 128;
  int capped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Workload w = workloads::MakeSynthetic(spec, seed);
    MapRequest request;
    request.chain = &w.chain;
    request.machine = w.machine;
    request.total_procs = spec.machine_procs;
    request.options.num_threads = 1;
    request.use_cache = false;
    const Mapping mapping = MappingEngine().Map(request).mapping;
    std::vector<Mapping> candidates{mapping};
    for (std::size_t i = 0; i < mapping.modules.size(); ++i) {
      if (mapping.modules[i].replicas <= 1) continue;
      candidates.push_back(mapping);
      candidates.back().modules[i].replicas -= 1;
    }
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " candidate " +
                   std::to_string(c));
      capped += ExpectSameAsLegacy(candidates[c], w.machine.grid_rows,
                                   w.machine.grid_cols, 200'000)
                    .hit_node_cap;
    }
  }
  EXPECT_GT(capped, 0);
}

}  // namespace
}  // namespace pipemap
