// The value type shared by the solution cache's tiers.
#pragma once

#include <string>

namespace pipemap {

/// A cached solution: everything needed to answer a MapRequest without
/// re-solving, plus the provenance of the original solve.
struct CachedSolution {
  /// SerializeMapping output of the solved mapping.
  std::string mapping_text;
  double objective_value = 0.0;
  double throughput = 0.0;
  double latency = 0.0;
  /// The solver stages that produced the entry, "+"-joined
  /// ToString(SolverPolicy) names (e.g. "dp", "greedy+dp").
  std::string solver;
  bool exact = false;
  /// True when this Lookup result came from the persistent tier rather
  /// than the in-memory LRU. Provenance only: never serialized, reset on
  /// insert, and the rehydrated in-memory copy reports false.
  bool from_disk = false;
};

}  // namespace pipemap
