// Mapping feasibility on a concrete machine.
//
// Combines the rectangular-subarray constraint, grid packing, and (in
// systolic mode) pathway-capacity checks into the feasibility table and
// validator the mappers consume, and implements the paper's fallback for
// infeasible optimal mappings: reduce replication of modules until the
// mapping packs (Section 6.4: "we used a smaller number of instances of
// one or more modules").
#pragma once

#include <limits>
#include <string>

#include "core/evaluator.h"
#include "core/mapper.h"
#include "machine/machine.h"
#include "machine/packing.h"
#include "machine/pathways.h"

namespace pipemap {

/// Outcome of checking one mapping against a machine.
struct FeasibilityReport {
  bool feasible = false;
  std::string reason;  // set when infeasible
  PackResult packing;
  PathwayCheck pathways;  // meaningful in systolic mode only
};

class FeasibilityChecker {
 public:
  explicit FeasibilityChecker(MachineConfig machine);

  const MachineConfig& machine() const { return machine_; }

  /// The grid's rectangle-feasible per-instance processor counts up to
  /// `max_count` (FeasibleProcCounts), for MapperOptions::proc_feasible: a
  /// P-processor solve reads no count above P, so P is exact for it.
  FeasibleProcs ProcCountPredicate(
      int max_count = std::numeric_limits<int>::max()) const;

  /// Full check: rectangle counts, grid packing, pathway capacities.
  FeasibilityReport Check(const Mapping& mapping) const;

  /// Returns `mapping` if feasible; otherwise searches nearby mappings with
  /// reduced replication (dropping instances from the modules with the most
  /// replicas first) and returns the feasible variant with the best
  /// predicted throughput. Throws pipemap::Infeasible if none is found.
  Mapping MakeFeasible(const Mapping& mapping, const Evaluator& eval) const;

 private:
  MachineConfig machine_;
};

}  // namespace pipemap
