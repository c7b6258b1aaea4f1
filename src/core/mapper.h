// Shared mapper types: options, results, and the constrained module
// configuration rule that all mappers (dynamic programming, greedy, brute
// force) must share so their optimality claims are comparable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/mapping.h"
#include "core/warm_start.h"
#include "support/deadline.h"

namespace pipemap {

/// The admissible per-instance processor counts: machine/compiler
/// constraints such as the Fx compiler's rectangular-subarray requirement
/// (Section 6.1), resolved once into a lookup table. Default-constructed,
/// it admits every count. Two tables compare equal iff they admit the
/// same counts.
class FeasibleProcs {
 public:
  FeasibleProcs() = default;
  /// Admits exactly `counts` (any order; duplicates are ignored). Every
  /// count must be >= 1.
  explicit FeasibleProcs(const std::vector<int>& counts);

  bool Admits(int p) const { return p >= 1 && AtMost(p) == p; }

  /// Largest admitted count <= p, or 0 when there is none.
  int AtMost(int p) const {
    if (p < 1) return 0;
    if (at_most_.empty()) return p;
    return at_most_[std::min<std::size_t>(p, at_most_.size() - 1)];
  }

  bool operator==(const FeasibleProcs&) const = default;

 private:
  /// at_most_[p] = AtMost(p), ending at the largest admitted count (so
  /// equal count sets give equal tables); empty admits every count.
  std::vector<int> at_most_;
};

/// Options shared by the mapping algorithms.
struct MapperOptions {
  ReplicationPolicy replication = ReplicationPolicy::kMaximal;
  bool allow_clustering = true;
  FeasibleProcs proc_feasible;
  /// Upper bound on dynamic-programming table memory; exceeding it throws
  /// pipemap::ResourceLimit instead of silently thrashing.
  std::size_t max_table_bytes = std::size_t{3} << 30;
  /// Worker threads for the parallel mappers: <= 0 means hardware
  /// concurrency, 1 forces the bit-exact serial path. Every thread count
  /// produces identical mappings and objective values.
  int num_threads = 0;
  /// Forces metrics collection (support/metrics.h) on for the duration of
  /// the mapping run, restoring the previous process-wide setting after.
  /// With this false (the default) collection follows the process-wide
  /// switch, which the CLI's --metrics/--trace flags control. Collection
  /// never changes the returned mapping or objective.
  bool observe = false;
  /// Optional warm-start state shared across adjacent solves (frontier
  /// and budget sweeps): an incumbent mapping the DP prunes against. Null
  /// runs cold. Purely an accelerator: the DP returns identical mappings
  /// warm or cold (core/warm_start.h). Never part of the cache
  /// fingerprint.
  std::shared_ptr<WarmStartState> warm;
  /// Optional cooperative deadline polled by solver inner loops. When it
  /// expires mid-solve the mapper stops refining and returns its best
  /// incumbent with MapResult::timed_out set (or throws ResourceLimit if no
  /// feasible incumbent exists yet). Null means solve to completion. Like
  /// `warm`, never part of the cache fingerprint: the engine refuses to
  /// cache timed-out results, so a deadline cannot change what a cacheable
  /// complete answer looks like.
  std::shared_ptr<const Deadline> deadline;
};

/// Result of a mapping run.
struct MapResult {
  Mapping mapping;
  /// Predicted throughput of `mapping` (data sets per second).
  double throughput = 0.0;
  /// Inner-loop iterations performed; exposes the O(P^4 k^2) vs O(P k)
  /// complexity contrast empirically.
  std::uint64_t work = 0;
  /// DP cells skipped by dominance pruning (0 for non-DP mappers); cells
  /// the DP's budget floors drop before layout are not counted. Like
  /// `work`, deterministic for a fixed thread count but may vary between
  /// thread counts; the mapping and throughput never do.
  std::uint64_t pruned_cells = 0;
  /// True when MapperOptions::deadline expired mid-solve and `mapping` is
  /// the best incumbent rather than a certified optimum.
  bool timed_out = false;
  /// Per-worker share of `work` across the DP's parallel stage sweeps
  /// (empty for non-DP mappers); exposes partition imbalance.
  std::vector<std::uint64_t> worker_work;
};

/// A clustering: contiguous task ranges [first, last], in chain order.
using Clustering = std::vector<std::pair<int, int>>;

/// Clustering with every task in its own module.
Clustering SingletonClustering(int num_tasks);

/// Splits `budget` processors into replicas for module [first, last] under
/// `policy` (Section 3.2: r = floor(budget / p_min) under kMaximal), then
/// lowers the per-instance count to the largest count `feasible` admits.
/// Invalid when the budget misses the memory minimum or no feasible
/// instance size exists.
ModuleConfig ConfigureConstrained(const Evaluator& eval, int first, int last,
                                  int budget, ReplicationPolicy policy,
                                  const FeasibleProcs& feasible);

/// Builds the Mapping induced by a clustering and per-module processor
/// budgets; nullopt if any module cannot be configured.
std::optional<Mapping> BuildMapping(const Evaluator& eval,
                                    const Clustering& clustering,
                                    const std::vector<int>& budgets,
                                    ReplicationPolicy policy,
                                    const FeasibleProcs& feasible);

}  // namespace pipemap
