// Memory model (Section 5, last paragraph; drives Section 3.2 replication
// limits and the Section 6.3 clustering trade-off).
//
// A task's per-processor footprint splits into a replicated part (globals,
// system state, compiler buffers: present on every processor regardless of
// the group size) and a distributed part (the data arrays, divided across
// the group). A module formed by merging tasks sums both parts, which is why
// merging raises the minimum processor count per instance and therefore
// lowers the achievable replication degree.
#pragma once

namespace pipemap {

/// Memory footprint of a task or module, in bytes.
struct MemorySpec {
  /// Bytes present on every processor of the group (globals, buffers).
  double fixed_bytes = 0.0;
  /// Bytes divided evenly across the processors of the group (arrays).
  double distributed_bytes = 0.0;

  /// Footprint of a merged module: both parts add.
  MemorySpec operator+(const MemorySpec& other) const {
    return {fixed_bytes + other.fixed_bytes,
            distributed_bytes + other.distributed_bytes};
  }
};

/// Smallest processor count on which the footprint fits nodes with
/// `node_memory_bytes` of usable memory each.
///
/// Throws pipemap::Infeasible if the fixed part alone exceeds node memory
/// (no processor count can help), or if the count does not fit in an int.
int MinProcessors(const MemorySpec& spec, double node_memory_bytes);

}  // namespace pipemap
