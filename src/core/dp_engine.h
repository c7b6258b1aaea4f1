// Internal dynamic-programming engine shared by the throughput mapper
// (paper Section 3) and the latency mapper (the companion optimization of
// Vondran's thesis [14], which the paper cites as the broader
// latency/throughput/processors problem).
//
// The engine explores the same state space either way — (end task of the
// last module, module length, processors used, module budget, previous
// module's instance processors) — and differs only in how a completed
// module's cost is aggregated:
//   * kBottleneck: value = max over modules of the effective response
//     (in + body + out) / r — maximizing throughput = minimizing this;
//   * kPathSum: value = sum over the pipeline of body + outgoing transfer
//     — the time one data set takes to traverse the chain (latency).
//
// An optional per-module cap on the effective response turns the path-sum
// objective into "minimize latency subject to throughput >= 1/cap": the
// throughput constraint decomposes into a local test on each module, which
// is what makes the joint problem solvable by the same DP.
#pragma once

#include <limits>
#include <vector>

#include "core/evaluator.h"
#include "core/mapper.h"

namespace pipemap::detail {

enum class DpObjective {
  kBottleneck,  // minimize max_i (f_i / r_i)  (throughput)
  kPathSum,     // minimize sum of bodies + boundary transfers (latency)
};

/// How a module budget is turned into a (replicas, procs) configuration.
enum class DpConfigRule {
  /// MapperOptions::replication via ConfigureConstrained — the paper's
  /// rule; right for the bottleneck objective.
  kPolicy,
  /// Per budget, the configuration minimizing the module body time whose
  /// body-only effective response fits the cap — right for the path-sum
  /// objective at loose throughput floors. (See LatencyConfig.)
  kLatencyBody,
};

struct DpProblem {
  const Evaluator* eval = nullptr;
  int total_procs = 0;
  MapperOptions options;
  DpObjective objective = DpObjective::kBottleneck;
  DpConfigRule config_rule = DpConfigRule::kPolicy;
  /// Per-module bound on the effective response f_i / r_i; modules that
  /// exceed it are pruned. Infinity = unconstrained.
  double max_effective_response = std::numeric_limits<double>::infinity();
};

/// Module configuration rule for the path-sum objective: for each budget,
/// pick the replica count minimizing the module body time (the latency
/// contribution) among those whose body-only effective response fits under
/// `response_cap`. The transition still enforces the full cap including
/// boundary communication. With an infinite cap this degenerates to the
/// minimum-body (usually replica-free) configuration.
ModuleConfig LatencyConfig(const Evaluator& eval, int first, int last,
                           int budget, double response_cap,
                           const FeasibleProcs& feasible);

struct DpSolution {
  Mapping mapping;
  /// The aggregated objective value (bottleneck response or path sum).
  double objective_value = 0.0;
  std::uint64_t work = 0;
  /// (pu, budget) cells skipped by dominance pruning: their optimistic
  /// bound could not beat the best known mapping. Cells the incumbent's
  /// budget floors drop are never laid out and are not counted.
  /// Deterministic for a given thread count; may differ between thread
  /// counts (the mapping and objective never do).
  std::uint64_t pruned_cells = 0;
  /// Warm-start provenance: whether the caller's incumbent tightened the
  /// pruning threshold. Never affects the returned mapping or objective.
  bool seeded_incumbent = false;
  /// Per-worker share of `work` across the parallel stage sweeps (index =
  /// worker id, size = resolved thread count; sums to `work`). Exposes
  /// partition imbalance for the scaling bench's diagnostics.
  std::vector<std::uint64_t> worker_work;
  /// True when MapperOptions::deadline expired mid-sweep: `mapping` is the
  /// best incumbent found up to that point (a heuristic seed, a warm-start
  /// carry-over, or the best terminal of the completed stages), not a
  /// certified optimum. Timed-out results are valid mappings but are not
  /// deterministic across runs — where the clock fires is not.
  bool timed_out = false;
};

/// Runs the DP. Throws pipemap::Infeasible when no mapping satisfies the
/// constraints and pipemap::ResourceLimit when the table would exceed
/// options.max_table_bytes — or when options.deadline expires before any
/// feasible incumbent is known. Every run first tabulates its own range
/// tables (the configuration of every module range at every budget up to
/// total_procs) from `eval` and the options; that pass always runs to
/// completion (it is the cheap half of the solve), and the deadline
/// interrupts the stage sweeps, which dominate the O(P^4 k^2) cost. With
/// options.warm set, the state's incumbent (re-evaluated under this run's
/// tables) seeds the pruning threshold, and the run's answer replaces it.
DpSolution RunChainDp(const DpProblem& problem);

}  // namespace pipemap::detail
