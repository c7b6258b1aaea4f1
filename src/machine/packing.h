// Packing module instances onto the processor grid.
//
// Even when every module instance has a rectangle-feasible processor count,
// the collection of rectangles must also tile the physical array (Section
// 6.1: "it may not be possible to map all the modules due to geometrical
// constraints"). This is an exact search: the topmost-leftmost free cell
// must either anchor some remaining instance rectangle or be declared
// wasted (bounded by the number of unassigned processors), with
// interchangeable instances deduplicated.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.h"

namespace pipemap {

/// An axis-aligned placement on the grid.
struct GridRect {
  int row = 0;
  int col = 0;
  int height = 0;
  int width = 0;
};

/// Placement of one module instance.
struct InstancePlacement {
  int module = 0;
  int instance = 0;
  GridRect rect;
};

struct PackResult {
  bool success = false;
  std::vector<InstancePlacement> placements;
  /// Search nodes explored, the one that met the cap included.
  std::uint64_t nodes = 0;
  /// The search gave up at max_nodes: a failure that is not a proof the
  /// instances cannot pack.
  bool hit_node_cap = false;
};

/// Attempts to place one rectangle per module instance of `mapping` onto an
/// rows x cols grid. Instances of module i need area
/// mapping.modules[i].procs_per_instance.
PackResult PackInstances(const Mapping& mapping, int rows, int cols,
                         std::uint64_t max_nodes = 200'000);

}  // namespace pipemap
