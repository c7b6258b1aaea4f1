#include "machine/pathways.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "support/error.h"
#include "support/rng.h"

namespace pipemap {
namespace {

TEST(CommunicatingPairsTest, EqualReplicasPairUpOneToOne) {
  const auto pairs = CommunicatingPairs(3, 3);
  ASSERT_EQ(pairs.size(), 3u);
  for (const auto& [a, b] : pairs) EXPECT_EQ(a, b);
}

TEST(CommunicatingPairsTest, SingleUpstreamTalksToAllDownstream) {
  const auto pairs = CommunicatingPairs(1, 4);
  ASSERT_EQ(pairs.size(), 4u);
  for (const auto& [a, b] : pairs) EXPECT_EQ(a, 0);
}

TEST(CommunicatingPairsTest, CoprimeReplicasFullyConnect) {
  // lcm(2,3) = 6 data sets cover all 6 pairs.
  const auto pairs = CommunicatingPairs(2, 3);
  EXPECT_EQ(pairs.size(), 6u);
}

TEST(CommunicatingPairsTest, SharedFactorReducesConnections) {
  // lcm(2,4) = 4: upstream 0 -> {0, 2}, upstream 1 -> {1, 3}.
  const auto pairs = CommunicatingPairs(2, 4);
  EXPECT_EQ(pairs.size(), 4u);
  for (const auto& [a, b] : pairs) EXPECT_EQ(b % 2, a);
}

Mapping TwoModules(int r1, int p1, int r2, int p2) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, r1, p1});
  m.modules.push_back(ModuleAssignment{1, 1, r2, p2});
  return m;
}

TEST(CheckPathwaysTest, AdjacentSingleInstancesUseFewLinks) {
  const Mapping m = TwoModules(1, 4, 1, 4);
  std::vector<InstancePlacement> placements = {
      {0, 0, GridRect{0, 0, 2, 2}},
      {1, 0, GridRect{0, 2, 2, 2}},
  };
  const PathwayCheck check = CheckPathways(m, placements, 4, 4, 4);
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.pathways, 1);
  EXPECT_LE(check.max_link_load, 1);
}

TEST(CheckPathwaysTest, ManyPathwaysThroughOneLinkExceedCapacity) {
  // 6 upstream instances in column 0, 6 downstream in column 3, all routed
  // through the middle: per-row routing keeps loads low, but forcing all
  // destinations into one row concentrates load.
  Mapping m = TwoModules(6, 1, 1, 1);
  std::vector<InstancePlacement> placements;
  for (int i = 0; i < 6; ++i) {
    placements.push_back({0, i, GridRect{i, 0, 1, 1}});
  }
  placements.push_back({1, 0, GridRect{0, 3, 1, 1}});
  // All 6 pathways converge on the receiver; the final vertical/horizontal
  // links near it carry several pathways.
  const PathwayCheck tight = CheckPathways(m, placements, 6, 4, 2);
  EXPECT_FALSE(tight.ok);
  const PathwayCheck loose = CheckPathways(m, placements, 6, 4, 6);
  EXPECT_TRUE(loose.ok);
  EXPECT_EQ(tight.pathways, 6);
}

TEST(CheckPathwaysTest, ZeroPathwaysForSingleModule) {
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 1, 2, 2});
  std::vector<InstancePlacement> placements = {
      {0, 0, GridRect{0, 0, 1, 2}},
      {0, 1, GridRect{1, 0, 1, 2}},
  };
  const PathwayCheck check = CheckPathways(m, placements, 2, 2, 1);
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.pathways, 0);
  EXPECT_EQ(check.max_link_load, 0);
}

TEST(CheckPathwaysTest, MissingPlacementThrows) {
  const Mapping m = TwoModules(1, 1, 1, 1);
  std::vector<InstancePlacement> placements = {
      {0, 0, GridRect{0, 0, 1, 1}},
  };
  EXPECT_THROW(CheckPathways(m, placements, 2, 2, 4), InvalidArgument);
}

TEST(CheckPathwaysTest, PlacementOutsideTheGridThrows) {
  const Mapping m = TwoModules(1, 4, 1, 4);
  const std::vector<InstancePlacement> placements = {
      {0, 0, GridRect{0, 0, 2, 2}},
      {1, 0, GridRect{1, 2, 2, 2}},  // rows 1-2 of a 2-row grid
  };
  EXPECT_THROW(CheckPathways(m, placements, 2, 4, 4), InvalidArgument);
  EXPECT_TRUE(CheckPathways(m, placements, 3, 4, 4).ok);
}

TEST(CheckPathwaysTest, SamePositionPathwayUsesNoLinks) {
  // Sender and receiver rectangle centers coincide: no link traversed.
  const Mapping m = TwoModules(1, 2, 1, 2);
  std::vector<InstancePlacement> placements = {
      {0, 0, GridRect{0, 0, 2, 2}},
      {1, 0, GridRect{0, 0, 2, 2}},
  };
  const PathwayCheck check = CheckPathways(m, placements, 2, 2, 1);
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.max_link_load, 0);
}

/// The same endpoints and dimension-ordered routes as CheckPathways, with
/// the link loads in a map keyed by (vertical?, row, col), so no array is
/// sized by the grid.
PathwayCheck SparseReferenceCheck(
    const Mapping& mapping, const std::vector<InstancePlacement>& placements,
    int capacity) {
  std::vector<std::vector<GridRect>> rects(mapping.num_modules());
  for (int m = 0; m < mapping.num_modules(); ++m) {
    rects[m].resize(mapping.modules[m].replicas);
  }
  for (const InstancePlacement& p : placements) {
    rects[p.module][p.instance] = p.rect;
  }
  std::map<std::tuple<bool, int, int>, int> load;
  PathwayCheck check;
  check.capacity = capacity;
  for (int m = 0; m + 1 < mapping.num_modules(); ++m) {
    std::vector<int> src_use(mapping.modules[m].replicas, 0);
    std::vector<int> dst_use(mapping.modules[m + 1].replicas, 0);
    for (const auto& [a, b] : CommunicatingPairs(
             mapping.modules[m].replicas, mapping.modules[m + 1].replicas)) {
      const GridRect& s = rects[m][a];
      const GridRect& d = rects[m + 1][b];
      const int i = src_use[a]++ % (s.height * s.width);
      const int j = dst_use[b]++ % (d.height * d.width);
      const int r0 = s.row + i / s.width, c0 = s.col + i % s.width;
      const int r1 = d.row + j / d.width, c1 = d.col + j % d.width;
      for (int c = std::min(c0, c1); c < std::max(c0, c1); ++c) {
        ++load[{false, r0, c}];
      }
      for (int r = std::min(r0, r1); r < std::max(r0, r1); ++r) {
        ++load[{true, r, c1}];
      }
      ++check.pathways;
    }
  }
  for (const auto& [link, n] : load) {
    check.max_link_load = std::max(check.max_link_load, n);
  }
  check.ok = check.max_link_load <= capacity;
  return check;
}

TEST(CheckPathwaysTest, ShiftedPackingsMatchASparseReference) {
  // Packings moved off the grid's corner and into a larger grid: the
  // loads depend on the placements alone, wherever they sit.
  Rng rng(20261021);
  int checked = 0;
  int overloaded = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const int rows = rng.UniformInt(1, 12);
    const int cols = rng.UniformInt(1, 12);
    Mapping mapping;
    int area = 0;
    const int modules = rng.UniformInt(1, 5);
    for (int i = 0; i < modules; ++i) {
      const int replicas = rng.UniformInt(1, 4);
      const int procs = rng.UniformInt(1, 6);
      if (area + replicas * procs > rows * cols) break;
      mapping.modules.push_back(ModuleAssignment{i, i, replicas, procs});
      area += replicas * procs;
    }
    if (mapping.modules.empty()) continue;
    const PackResult packed = PackInstances(mapping, rows, cols);
    if (!packed.success) continue;
    const int dr = rng.UniformInt(0, 20);
    const int dc = rng.UniformInt(0, 20);
    std::vector<InstancePlacement> shifted = packed.placements;
    for (InstancePlacement& p : shifted) {
      p.rect.row += dr;
      p.rect.col += dc;
    }
    const int grid_rows = dr + rows + rng.UniformInt(0, 20);
    const int grid_cols = dc + cols + rng.UniformInt(0, 20);
    const int capacity = rng.UniformInt(1, 6);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const PathwayCheck want = SparseReferenceCheck(mapping, shifted, capacity);
    const PathwayCheck got =
        CheckPathways(mapping, shifted, grid_rows, grid_cols, capacity);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.max_link_load, want.max_link_load);
    EXPECT_EQ(got.pathways, want.pathways);
    EXPECT_EQ(got.capacity, capacity);
    ++checked;
    overloaded += !want.ok;
  }
  EXPECT_GT(checked, 300);
  EXPECT_GT(overloaded, 0);
}

}  // namespace
}  // namespace pipemap
