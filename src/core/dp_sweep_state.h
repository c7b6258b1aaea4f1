// DP stage tables, and their capture for incremental re-solves.
//
// A completed chain-DP sweep leaves behind per-stage value/backpointer
// tables whose contents at stage (j, len) depend only on
//   * tasks 0..j-1 and edges 0..j-1 of the chain's cost model,
//   * the module-range metadata (memory minima, replicability) and the
//     configuration rule / replication policy / feasibility table,
//   * the suffix budget bounds suffix_min[0..j+1] that gate seeds, row
//     filters, and writes.
// A re-solve whose chain differs only from some task index onward can
// therefore reuse every stage strictly before the first dirty index and
// re-sweep only the dirty suffix — exactness-preserving, because the
// reused tables are bitwise what the cold solve's prefix sweep would
// produce (capture runs with dominance pruning disabled on non-terminal
// stages, and a pruned-off write can never reach or tie the optimum; see
// dp_engine.cpp).
//
// Dirtiness is detected by content, not identity: the word-at-a-time
// hashes of support/hash.h over the evaluator's tabulated cost rows (exec
// per task; icom row + ecom block per edge) plus direct comparison of the
// small min-procs/replicable range caches. This makes the state reusable
// across Evaluator instances — the engine rebuilds its evaluator per
// request — as long as the machine size and the clean prefix's cost
// content are unchanged. Only tabulated evaluators can be fingerprinted;
// untabulated ones never capture.
//
// Ownership: a DpSweepState hangs off WarmStartState::sweep and is checked
// out exclusively by a solve (the solve detaches it, mutates the stage
// tables in place during the incremental re-sweep, and re-attaches on
// success). A solve that aborts — deadline expiry, infeasibility — leaves
// the state detached, so a corrupt half-rebuilt grid is never reused. A
// cold solve that does not capture hands its grid to the calling thread,
// whose next cold solve reuses the buffers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dp_engine.h"
#include "support/aligned.h"

namespace pipemap::detail {

/// One (pu, b) cell of a stage: `pu` processors used, `b` the last
/// module's budget.
struct CellIndex {
  /// Written lanes [lo, hi), packed lo | hi << 16; hi <= lo (0xffff) marks
  /// an empty cell. Lanes in the cell's block but outside the range hold
  /// +inf.
  std::uint32_t slot_range;
  /// Lane g of the cell lives at pool[lane_base + g], in uint32 arithmetic
  /// (a block that starts at slot lo > 0 has lane_base = offset - lo).
  std::uint32_t lane_base;
};

/// One DP stage (j, len), sized to its live states: a dense index of
/// (cap+1)^2 cells at pu * (cap+1) + b, and pools of value and
/// backpointer lanes that hold one block per cell that can be written. A
/// lane is a `slot`: the rank of the previous module's per-instance
/// processor count in the solve's slot universe (slot 0 is the
/// no-predecessor marker).
///
/// A stage's pool is laid out by the solve that (re)builds it, before
/// anything writes it. A destination cell (pu + b2, b2) of a stage whose
/// first task is f > 0 is written only from source row pu of the stages
/// (f - 1, *); those source cells are final before iteration f - 1
/// starts, and each write lands in the slot of its source cell's
/// configuration. So at the start of that iteration the engine gives
/// every reachable destination cell one block spanning the slots of its
/// source row's live cells, grouped by source row so workers sweeping
/// different rows write disjoint runs. Stages of the first module hold
/// only seeds, one lane per (b, b) cell.
struct FlatStage {
  std::vector<CellIndex> cells;
  std::vector<double> value;      // +inf until written
  std::vector<std::uint32_t> bp;  // read only at written lanes
  /// row_live[pu] != 0 iff some (pu, b) cell is non-empty. One cache line
  /// per flag: the flags are written concurrently (relaxed stores of 1)
  /// by workers sweeping different source rows.
  std::vector<CacheLinePadded<std::atomic<char>>> row_live;
  bool allocated = false;
};

struct DpSweepState {
  // Problem key: everything the stage contents depend on besides the cost
  // values themselves (fingerprinted below). `cap` must match exactly —
  // stage extents and the suffix gates depend on it.
  int k = 0;
  int cap = 0;
  int max_len = 0;
  ReplicationPolicy policy = ReplicationPolicy::kMaximal;
  DpConfigRule rule = DpConfigRule::kPolicy;
  double response_cap = 0.0;
  FeasibleProcs feasible;
  bool path_sum = false;

  // Content fingerprints of the evaluator the sweep was captured against.
  std::vector<std::uint64_t> task_hash;  // k entries: exec row
  std::vector<std::uint64_t> edge_hash;  // k-1: icom row + ecom block
  std::vector<int> min_procs;            // k*k range cache copy
  std::vector<char> replicable;          // k*k range cache copy
  std::vector<long long> suffix_min;     // k+1, from the capture's tables

  // The pp -> slot compression this capture's backpointers use.
  std::vector<int> slot_procs;  // ascending, slot_procs[0] == 0

  std::vector<FlatStage> stages;  // indexed j * k + (len - 1)
  /// Index, row-flag and pool bytes of the allocated stages, as laid out
  /// (what max_table_bytes bounds and dp.table_bytes reports).
  std::size_t allocated_bytes = 0;
};

}  // namespace pipemap::detail
