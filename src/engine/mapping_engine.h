// MappingEngine: the one front door to the mapping algorithms.
//
// Callers describe *what* they want mapped — a chain, a machine, an
// objective, a solver policy — as a MapRequest; the engine decides *how*:
// which solver(s) to run, whether a cached solution already answers the
// request, and how to carry an incumbent through sweep-shaped workloads
// (latency/throughput frontiers, machine sizing). The response carries
// the mapping plus full provenance: which solver produced it, whether it
// is exact, the request fingerprint, cache behavior, and wall-clock cost.
//
// Solver policy:
//   * kAuto (throughput): run greedy for a fast incumbent, then escalate
//     to the exact DP seeded with that incumbent (warm start). On
//     instances small enough for the exhaustive reference (at most 5
//     tasks on at most 10 processors) brute force additionally certifies
//     the result. Escalation stops when the request's time budget is spent,
//     in which case the response is marked inexact.
//   * kAuto (latency objectives): the latency DP directly.
//   * kDp / kGreedy / kBrute / kLatency: exactly that mapper. A policy
//     that cannot answer the request's objective is rejected before any
//     work is done.
//
// Caching: every request builds its Evaluator once; the request key
// (Fingerprint below, engine/fingerprint.h) is taken from the Evaluator's
// cost-table hashes and range tables plus the machine and option fields,
// and the same Evaluator then solves a miss. Hits come from a sharded LRU
// cache (engine/solution_cache.h) and return a mapping byte-identical to
// what a fresh solve would produce — the cache stores serialized
// mappings, and the tests pin the equality. The key folds the resolved
// feasibility table, so a caller's table is cached like the machine's.
// An untabulated Evaluator has no content hashes, so such requests bypass
// the cache entirely rather than risk a false hit. With
// EngineConfig::cache_dir set the cache additionally persists
// (engine/cache_persist.h): a restarted process answers yesterday's keys
// from disk, and the response reports which tier hit via
// MapResponse::cache_tier. Concurrent identical-key misses collapse into
// one solve (engine/single_flight.h) whose result fans out to every
// waiter with MapResponse::shared_solve provenance.
//
// Sweeps (Frontier, MinProcs) are not cached: each call solves, and one
// warm-start state carries each solve's mapping to the next as its
// pruning incumbent. Every DP solve tabulates its own range tables.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/latency_mapper.h"
#include "core/mapper.h"
#include "core/task.h"
#include "engine/single_flight.h"
#include "engine/solution_cache.h"
#include "machine/machine.h"

namespace pipemap {

/// What the caller wants optimized. The request key folds the enumerator's
/// value in, so the order is part of the key.
enum class MapObjective {
  /// Maximize throughput (minimize the bottleneck effective response).
  kThroughput,
  /// Minimize one data set's traversal latency.
  kLatency,
  /// Minimize latency subject to throughput >= min_throughput.
  kLatencyWithFloor,
};

const char* ToString(MapObjective objective);

/// Which solver(s) the engine may use for a request. Like MapObjective,
/// the enumerator order is part of the request key.
enum class SolverPolicy {
  kAuto,
  kDp,
  kGreedy,
  kBrute,
  kLatency,
};

const char* ToString(SolverPolicy policy);

/// A mapping problem, fully described. The chain is borrowed (callers own
/// it for the duration of the call); everything else is by value.
struct MapRequest {
  const TaskChain* chain = nullptr;
  MachineConfig machine;
  /// Processor budget; <= 0 means the whole machine.
  int total_procs = 0;
  MapObjective objective = MapObjective::kThroughput;
  /// Throughput floor for MapObjective::kLatencyWithFloor.
  double min_throughput = 0.0;
  SolverPolicy solver = SolverPolicy::kAuto;
  /// Algorithm options. Leave proc_feasible at its default and keep
  /// machine_feasibility true to get the machine's table; either way the
  /// key folds the table the solvers run under.
  MapperOptions options;
  /// Installs FeasibilityChecker(machine)'s processor-count table when
  /// options.proc_feasible is the default (matches the CLI's default).
  bool machine_feasibility = true;
  /// Consult/populate the engine's solution cache.
  bool use_cache = true;
  /// Optional Evaluator the caller already built for this request's
  /// chain, processor budget and node memory (borrowed, like `chain`).
  /// The engine keys and solves with it instead of tabulating its own, so
  /// a caller that needs the Evaluator afterwards (the server's
  /// MakeFeasible) builds it once per request. Checked against the
  /// request; never part of the key.
  const Evaluator* eval = nullptr;
  /// Request trace id (support/trace_context.h); 0 = untraced. Purely
  /// provenance: it never enters the fingerprint (two requests differing
  /// only in trace_id are the same problem and share a cache entry), but
  /// it is echoed in MapResponse, stamped on the engine's trace spans,
  /// and joins the solve to the server's access-log line.
  std::uint64_t trace_id = 0;
  /// Wall-clock budget for the whole request. The budget binds only when
  /// it is a positive finite number of seconds (Deadline::HasBudget);
  /// zero, negative, and infinite values all mean "no budget" — so a
  /// caller that leaves a protocol field at 0 gets an unconstrained solve,
  /// never one that expires at the starting line. Between portfolio stages
  /// under kAuto: once spent, no further solver is launched. Within a
  /// stage: the engine derives a cooperative Deadline (support/deadline.h)
  /// from this budget and threads it into the solver inner loops via
  /// MapperOptions::deadline, so a long solve is interrupted mid-stage and
  /// returns its best incumbent with MapResponse::timed_out set. An
  /// explicitly supplied options.deadline takes precedence.
  double time_budget_s = 0.0;
};

/// Sets `request`'s objective, floor and solver from the objective,
/// algorithm and floor that the CLI and the protocol take. "latency" runs
/// the latency DP, floored when `floor` > 0 (0 is no floor: the wire
/// cannot tell 0 from absent); "throughput" takes dp|greedy|auto|brute.
/// InvalidArgument on an unknown name or a negative or non-finite floor.
void ApplySolverPolicy(std::string_view objective, std::string_view algorithm,
                       double floor, MapRequest* request);

/// A solved mapping plus provenance.
struct MapResponse {
  Mapping mapping;
  /// Minimized quantity: bottleneck effective response (s) for
  /// throughput, path latency (s) for the latency objectives.
  double objective_value = 0.0;
  double throughput = 0.0;
  double latency = 0.0;
  std::uint64_t work = 0;
  std::uint64_t pruned_cells = 0;

  /// "+"-joined names of the solvers that ran (e.g. "greedy+dp"); for a
  /// cache hit, the recorded chain from the original solve.
  std::string solver;
  /// The kept result is provably optimal (within the replication policy).
  bool exact = false;
  bool cache_hit = false;
  /// Which cache tier answered a hit: "memory", "disk" (persistent tier,
  /// which also rehydrates memory), or "" when the request was solved.
  std::string cache_tier;
  /// This response was served by a concurrent identical solve (single-
  /// flight dedup): another request's solver produced it and this one
  /// only waited. Neither a cache hit nor a solve of its own.
  bool shared_solve = false;
  /// The request was keyed (fingerprint != 0) and eligible for the cache.
  bool cacheable = false;
  std::uint64_t fingerprint = 0;
  /// kAuto stopped escalating because time_budget_s was spent.
  bool budget_exhausted = false;
  /// A solver was interrupted mid-stage by the request deadline and
  /// returned its best incumbent. Timed-out responses are never exact and
  /// never cached.
  bool timed_out = false;
  double solve_seconds = 0.0;
  /// Echo of MapRequest::trace_id (0 = untraced).
  std::uint64_t trace_id = 0;
};

struct EngineConfig {
  /// When non-empty, the solution cache persists to this directory
  /// (engine/cache_persist.h): inserts spill write-behind, misses probe
  /// disk lazily, and a restarted process starts warm.
  std::string cache_dir;
};

class MappingEngine {
 public:
  explicit MappingEngine(EngineConfig config = {});

  MappingEngine(const MappingEngine&) = delete;
  MappingEngine& operator=(const MappingEngine&) = delete;

  /// Solves one request (cache → portfolio → cache fill). Throws
  /// pipemap::InvalidArgument on malformed requests, including a solver
  /// policy that cannot answer the objective, and propagates the
  /// solvers' Infeasible/ResourceLimit.
  MapResponse Map(const MapRequest& request);

  /// The latency/throughput Pareto frontier on the request's machine and
  /// budget. All solves in the sweep share one warm-start state, so each
  /// floor's DP prunes against the previous floor's mapping. The
  /// request's objective and use_cache fields are ignored.
  std::vector<FrontierPoint> Frontier(const MapRequest& request,
                                      int num_points);

  /// Smallest processor count reaching `target_throughput`, carrying the
  /// incumbent through the binary search's solves like Frontier. The
  /// request's total_procs (or the machine size) bounds the search.
  ProcCountResult MinProcs(const MapRequest& request,
                           double target_throughput);

  /// Request key of `request` (also computed by Map), tabulating an
  /// Evaluator unless the request carries one; 0 when the Evaluator is
  /// untabulated.
  std::uint64_t Fingerprint(const MapRequest& request) const;

  SolutionCache& cache() { return cache_; }
  const SolutionCache& cache() const { return cache_; }
  /// Single-flight dedup activity (engine.singleflight.* counters'
  /// aggregate twin, available when metrics are disabled).
  SingleFlightStats single_flight_stats() const {
    return single_flight_.stats();
  }

  /// Process-wide engine used by the CLI and tools, so repeated commands
  /// in one process share the cache.
  static MappingEngine& Shared();

 private:
  SolutionCache cache_;
  /// Leader-election table collapsing concurrent identical solves
  /// (engine/single_flight.h); consulted only after a cache miss on
  /// cacheable requests.
  SingleFlightGroup single_flight_;
};

}  // namespace pipemap
