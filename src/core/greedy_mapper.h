// Greedy heuristic mapper (paper Section 4).
//
// Procedure Greedy: seed every module with its minimum processor count,
// then repeatedly identify the module with the longest effective response
// time and grant one more processor to whichever of {its predecessor,
// itself, its successor} yields the best new throughput, keeping the best
// assignment ever seen. O(P k) processor-allocation steps.
//
// Variants implemented:
//  * kNeighborhood — the paper's Procedure Greedy (predecessor/successor
//    candidates included, necessary because response times contain
//    communication terms that depend on neighbour processor counts).
//  * kBottleneckOnly — the Theorem 1 variant (add to the slowest module
//    only), provably optimal when communication time is monotonically
//    increasing in the processor counts involved.
//
// Optional limited backtracking implements the Theorem 2 consequence: the
// plain greedy can over-allocate at most two processors per task under
// convexity, so an exhaustive search within a +/-2 radius of the greedy
// answer recovers the optimum at O(5^k) extra cost.
//
// Clustering (Section 4.2): run greedy once over singleton modules, sweep
// adjacent pairs for profitable merges (and re-check splits), then re-run
// greedy from scratch on the final clustering.
#pragma once

#include "core/evaluator.h"
#include "core/mapper.h"

namespace pipemap {

struct GreedyOptions {
  MapperOptions base;

  enum class Variant { kNeighborhood, kBottleneckOnly };
  Variant variant = Variant::kNeighborhood;

  /// Enables the post-pass exhaustive search within +/-2 processors
  /// (Theorem 2) of each module's greedy budget.
  bool limited_backtracking = false;
  /// Safety cap on backtracking combinations; beyond it the radius is
  /// reduced (and backtracking skipped if radius 1 still exceeds it).
  std::uint64_t max_backtrack_combos = 2'000'000;
};

class GreedyMapper {
 public:
  explicit GreedyMapper(GreedyOptions options = {});

  /// Maps the chain onto at most `total_procs` processors, choosing the
  /// clustering heuristically when options.base.allow_clustering is set.
  MapResult Map(const Evaluator& eval, int total_procs) const;

  /// Processor assignment for a fixed clustering (no merge/split search).
  MapResult MapWithClustering(const Evaluator& eval, int total_procs,
                              const Clustering& clustering) const;

  const GreedyOptions& options() const { return options_; }

 private:
  GreedyOptions options_;
};

}  // namespace pipemap
