#include "engine/mapping_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "core/brute_force.h"
#include "core/dp_mapper.h"
#include "core/greedy_mapper.h"
#include "engine/fingerprint.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {

const char* ToString(MapObjective objective) {
  switch (objective) {
    case MapObjective::kThroughput:
      return "throughput";
    case MapObjective::kLatency:
      return "latency";
    case MapObjective::kLatencyWithFloor:
      return "latency_with_floor";
  }
  return "unknown";
}

const char* ToString(SolverPolicy policy) {
  switch (policy) {
    case SolverPolicy::kAuto:
      return "auto";
    case SolverPolicy::kDp:
      return "dp";
    case SolverPolicy::kGreedy:
      return "greedy";
    case SolverPolicy::kBrute:
      return "brute";
    case SolverPolicy::kLatency:
      return "latency";
  }
  return "unknown";
}

void ApplySolverPolicy(std::string_view objective, std::string_view algorithm,
                       double floor, MapRequest* request) {
  if (!std::isfinite(floor) || floor < 0.0) {
    throw InvalidArgument("floor must be finite and >= 0");
  }
  if (objective == "latency") {
    request->solver = SolverPolicy::kLatency;
    request->objective = floor > 0.0 ? MapObjective::kLatencyWithFloor
                                     : MapObjective::kLatency;
    request->min_throughput = floor;
    return;
  }
  if (objective != "throughput") {
    throw InvalidArgument("unknown objective: " + std::string(objective));
  }
  request->objective = MapObjective::kThroughput;
  for (const SolverPolicy policy :
       {SolverPolicy::kDp, SolverPolicy::kGreedy, SolverPolicy::kAuto,
        SolverPolicy::kBrute}) {
    if (algorithm == ToString(policy)) {
      request->solver = policy;
      return;
    }
  }
  throw InvalidArgument("unknown algorithm: " + std::string(algorithm));
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// kAuto adds the brute-force certification stage only on instances this
/// small: exhaustive search is exponential in both.
constexpr int kBruteMaxTasks = 5;
constexpr int kBruteMaxProcs = 10;

/// Whether `policy` can answer `objective`: the greedy and DP mappers
/// maximize throughput only, the latency DP minimizes latency only, and
/// brute force (and kAuto, which picks per objective) answers all three.
bool Supports(SolverPolicy policy, MapObjective objective) {
  switch (policy) {
    case SolverPolicy::kDp:
    case SolverPolicy::kGreedy:
      return objective == MapObjective::kThroughput;
    case SolverPolicy::kLatency:
      return objective != MapObjective::kThroughput;
    case SolverPolicy::kAuto:
    case SolverPolicy::kBrute:
      return true;
  }
  return false;
}

/// A latency search's answer in the throughput mappers' result shape.
template <typename LatencySearchResult>
MapResult AsMapResult(LatencySearchResult r) {
  MapResult result;
  result.mapping = std::move(r.mapping);
  result.work = r.work;
  result.timed_out = r.timed_out;
  return result;
}

/// Runs one portfolio stage, a single mapper (never kAuto), on the
/// request's Evaluator. Throws what the mapper throws (Infeasible,
/// ResourceLimit).
MapResult RunStage(SolverPolicy stage, const MapRequest& request,
                   const Evaluator& eval, int procs,
                   const MapperOptions& options) {
  switch (stage) {
    case SolverPolicy::kDp:
      PIPEMAP_COUNTER_ADD("engine.solver.dp", 1);
      return DpMapper(options).Map(eval, procs);
    case SolverPolicy::kGreedy: {
      PIPEMAP_COUNTER_ADD("engine.solver.greedy", 1);
      GreedyOptions greedy;
      greedy.base = options;
      return GreedyMapper(greedy).Map(eval, procs);
    }
    case SolverPolicy::kBrute: {
      PIPEMAP_COUNTER_ADD("engine.solver.brute", 1);
      BruteForceOptions brute;
      brute.base = options;
      if (request.objective == MapObjective::kThroughput) {
        return BruteForceMapper(brute).Map(eval, procs);
      }
      const double floor =
          request.objective == MapObjective::kLatencyWithFloor
              ? request.min_throughput
              : 0.0;
      return AsMapResult(BruteForceMinLatency(eval, procs, floor, brute));
    }
    case SolverPolicy::kLatency: {
      PIPEMAP_COUNTER_ADD("engine.solver.latency", 1);
      const LatencyMapper mapper(options);
      return AsMapResult(
          request.objective == MapObjective::kLatencyWithFloor
              ? mapper.MinLatencyWithThroughput(eval, procs,
                                                request.min_throughput)
              : mapper.MinLatency(eval, procs));
    }
    case SolverPolicy::kAuto:
      break;
  }
  throw InvalidArgument("MappingEngine: kAuto is a portfolio, not a stage");
}

int ResolveProcs(const MapRequest& request) {
  const int procs = request.total_procs > 0 ? request.total_procs
                                            : request.machine.total_procs();
  PIPEMAP_CHECK(procs >= 1, "MapRequest: processor budget must be positive");
  return procs;
}

void ValidateRequest(const MapRequest& request) {
  PIPEMAP_CHECK(request.chain != nullptr, "MapRequest: chain is required");
  PIPEMAP_CHECK(request.objective != MapObjective::kLatencyWithFloor ||
                    request.min_throughput > 0.0,
                "MapRequest: latency_with_floor needs min_throughput > 0");
}

/// The request's Evaluator: the caller's, checked against the request, or
/// a fresh one in `owned`. Built once per request, it keys the caches and
/// feeds the solvers.
const Evaluator& RequestEvaluator(const MapRequest& request, int procs,
                                  std::optional<Evaluator>* owned) {
  if (request.eval != nullptr) {
    PIPEMAP_CHECK(&request.eval->chain() == request.chain &&
                      request.eval->max_procs() == procs &&
                      request.eval->node_memory_bytes() ==
                          request.machine.node_memory_bytes,
                  "MapRequest: eval was built for another chain, budget or "
                  "node memory");
    return *request.eval;
  }
  owned->emplace(*request.chain, procs, request.machine.node_memory_bytes,
                 request.options.num_threads);
  return **owned;
}

/// The request's options with the table the solvers run under: the
/// caller's, or the machine's counts up to `procs` when the caller left
/// the default and asked for it. Built once per request: keys and solves.
MapperOptions ResolveOptions(const MapRequest& request, int procs) {
  MapperOptions options = request.options;
  if (request.machine_feasibility &&
      options.proc_feasible == FeasibleProcs()) {
    options.proc_feasible =
        FeasibilityChecker(request.machine).ProcCountPredicate(procs);
  }
  return options;
}

// Key-completeness guards: these mirrors list every field of the structs
// RequestKey reads field by field. A new field changes the struct's size
// and breaks the build here, so whoever adds it decides whether the key
// covers it. Left out on purpose: the MapperOptions execution knobs
// (num_threads, observe, warm, deadline), none of which can
// change a cacheable answer. proc_feasible enters resolved (see
// ResolveOptions).
struct MachineConfigMirror {
  std::string name;
  int grid_rows, grid_cols;
  double node_memory_bytes;
  CommMode comm_mode;
  double node_flops, msg_overhead_s, transfer_startup_s, node_bandwidth,
      sync_per_proc_s;
  int pathways_per_link;
};
struct MapperOptionsMirror {
  ReplicationPolicy replication;
  bool allow_clustering;
  FeasibleProcs proc_feasible;
  std::size_t max_table_bytes;
  int num_threads;
  bool observe;
  std::shared_ptr<WarmStartState> warm;
  std::shared_ptr<const Deadline> deadline;
};
static_assert(sizeof(MachineConfig) == sizeof(MachineConfigMirror) &&
                  sizeof(MapperOptions) == sizeof(MapperOptionsMirror),
              "MachineConfig or MapperOptions changed: decide whether "
              "RequestKey covers the field, then update the mirror");

/// The request key (engine/fingerprint.h) on `procs` processors under the
/// resolved table `feasible`; 0 for an untabulated Evaluator.
std::uint64_t RequestKey(const MapRequest& request,
                         const FeasibleProcs& feasible, int procs,
                         const Evaluator& costs) {
  if (!costs.tabulated()) return 0;
  const MachineConfig& m = request.machine;
  const MapperOptions& o = request.options;
  FingerprintBuilder fb;
  fb.Append("pipemap-request v3");
  fb.Append(m.name).Append(m.grid_rows).Append(m.grid_cols);
  fb.Append(m.node_memory_bytes).Append(static_cast<int>(m.comm_mode));
  fb.Append(m.node_flops).Append(m.msg_overhead_s);
  fb.Append(m.transfer_startup_s).Append(m.node_bandwidth);
  fb.Append(m.sync_per_proc_s).Append(m.pathways_per_link);
  fb.Append(static_cast<int>(o.replication)).Append(o.allow_clustering);
  fb.Append(static_cast<std::uint64_t>(o.max_table_bytes));
  fb.Append(static_cast<int>(request.objective));
  fb.Append(static_cast<int>(request.solver));
  fb.Append(procs).Append(request.min_throughput);
  // The resolved table as the solvers read it: the counts in 1..procs it
  // admits, descending, then 0 (never a count).
  for (int p = feasible.AtMost(procs); p > 0; p = feasible.AtMost(p - 1)) {
    fb.Append(p);
  }
  fb.Append(0);

  const int k = costs.num_tasks();
  fb.Append(k).Append(costs.max_procs());
  for (int t = 0; t < k; ++t) fb.Append(costs.TaskCostHash(t));
  for (int e = 0; e + 1 < k; ++e) fb.Append(costs.EdgeCostHash(e));
  const std::vector<int>& min_procs = costs.min_procs_table();
  const std::vector<char>& replicable = costs.replicable_table();
  for (std::size_t i = 0; i < min_procs.size(); ++i) {
    fb.Append((static_cast<std::uint64_t>(min_procs[i]) << 1) |
              (replicable[i] != 0 ? 1u : 0u));
  }
  return std::max<std::uint64_t>(fb.value(), 1);  // 0 means uncacheable
}

/// Fills `response` with a cached or shared solve's answer.
void Replay(const CachedSolution& solved, MapResponse* response) {
  response->mapping = ParseMapping(solved.mapping_text);
  response->objective_value = solved.objective_value;
  response->throughput = solved.throughput;
  response->latency = solved.latency;
  response->solver = solved.solver;
  response->exact = solved.exact;
}

/// The resolved options with one warm-start state threaded through all of
/// a sweep's solves (the caller's, when the request carries one).
MapperOptions SweepOptions(const MapRequest& request, int procs) {
  MapperOptions options = ResolveOptions(request, procs);
  if (!options.warm) options.warm = std::make_shared<WarmStartState>();
  return options;
}

/// RAII around a single-flight leader's obligation to publish: unless a
/// real result is handed over, the destructor publishes "no result" so
/// followers are never left waiting when the leader's solve throws.
/// Constructed with a null flight (non-leaders), it does nothing.
class FlightPublisher {
 public:
  FlightPublisher(SingleFlightGroup* group, std::uint64_t key,
                  std::shared_ptr<SingleFlightGroup::Flight> flight)
      : group_(group), key_(key), flight_(std::move(flight)) {}
  ~FlightPublisher() {
    if (flight_) group_->Publish(key_, flight_, std::nullopt);
  }
  FlightPublisher(const FlightPublisher&) = delete;
  FlightPublisher& operator=(const FlightPublisher&) = delete;

  void Publish(CachedSolution result) {
    if (!flight_) return;
    group_->Publish(key_, flight_, std::move(result));
    flight_.reset();
  }

 private:
  SingleFlightGroup* group_;
  std::uint64_t key_;
  std::shared_ptr<SingleFlightGroup::Flight> flight_;
};

}  // namespace

MappingEngine::MappingEngine(EngineConfig config) {
  if (!config.cache_dir.empty()) {
    DiskPersistOptions persist;
    persist.dir = config.cache_dir;
    cache_.EnablePersistence(persist);
  }
}

MappingEngine& MappingEngine::Shared() {
  static MappingEngine engine;
  return engine;
}

std::uint64_t MappingEngine::Fingerprint(const MapRequest& request) const {
  ValidateRequest(request);
  const int procs = ResolveProcs(request);
  std::optional<Evaluator> owned;
  return RequestKey(request, ResolveOptions(request, procs).proc_feasible,
                    procs, RequestEvaluator(request, procs, &owned));
}

MapResponse MappingEngine::Map(const MapRequest& request) {
  ValidateRequest(request);
  PIPEMAP_CHECK(Supports(request.solver, request.objective),
                "MappingEngine: solver '" +
                    std::string(ToString(request.solver)) +
                    "' does not support objective " +
                    ToString(request.objective));
  const auto start = std::chrono::steady_clock::now();
  PIPEMAP_COUNTER_ADD("engine.map.calls", 1);
  // The request's trace id rides the span's arg, so trace_join.py can
  // correlate this solve with the server-side spans of the same request
  // (-1 = untraced; the exporter omits negative args).
  PIPEMAP_TRACE_SPAN("engine.map", "engine",
                     request.trace_id != 0
                         ? static_cast<std::int64_t>(request.trace_id)
                         : -1);
  const int procs = ResolveProcs(request);
  std::optional<Evaluator> owned_eval;
  const Evaluator& eval = RequestEvaluator(request, procs, &owned_eval);
  MapperOptions options = ResolveOptions(request, procs);

  MapResponse response;
  response.trace_id = request.trace_id;
  if (request.use_cache) {
    response.fingerprint =
        RequestKey(request, options.proc_feasible, procs, eval);
  }
  response.cacheable = response.fingerprint != 0;
  if (response.cacheable) {
    if (std::optional<CachedSolution> hit =
            cache_.Lookup(response.fingerprint)) {
      Replay(*hit, &response);
      response.cache_hit = true;
      response.cache_tier = hit->from_disk ? "disk" : "memory";
      response.solve_seconds = SecondsSince(start);
      return response;
    }
  }

  const bool has_budget = Deadline::HasBudget(request.time_budget_s);

  // Single-flight: a cacheable miss joins the in-progress flight for its
  // key. The leader falls through and solves; a follower parks on
  // the flight (bounded by its remaining budget, when it has one) and, if
  // the leader publishes a clean result, returns it with shared_solve
  // provenance — one solve, N answers. A follower that times out or whose
  // leader failed solves for itself below, exactly as if single-flight
  // did not exist.
  std::shared_ptr<SingleFlightGroup::Flight> flight;
  bool flight_leader = false;
  if (response.cacheable) {
    const auto joined = single_flight_.Join(response.fingerprint);
    flight = joined.first;
    flight_leader = joined.second;
    if (!flight_leader) {
      double wait_s = 0.0;  // no budget: wait as long as the solve takes
      bool can_wait = true;
      if (has_budget) {
        wait_s = request.time_budget_s - SecondsSince(start);
        can_wait = wait_s > 0.0;
      }
      if (can_wait) {
        if (std::optional<CachedSolution> shared =
                single_flight_.Wait(flight, wait_s)) {
          Replay(*shared, &response);
          response.shared_solve = true;
          response.solve_seconds = SecondsSince(start);
          return response;
        }
      }
      flight.reset();
    }
  }
  // A leader that throws must still wake its followers: the publisher's
  // destructor hands them "no result" (each then solves for itself)
  // unless a clean result is published at the bottom.
  FlightPublisher publisher(&single_flight_, response.fingerprint,
                            flight_leader ? flight : nullptr);

  // Cold path: run the portfolio on the request's Evaluator.
  // A binding budget (positive finite; 0/unset means unlimited — see
  // MapRequest::time_budget_s) becomes a cooperative deadline threaded
  // into the solver inner loops, anchored at this request's start so the
  // in-solver checks and the between-stage check below agree. An
  // explicitly supplied options.deadline wins (the caller measured its own
  // anchor).
  if (!options.deadline && has_budget) {
    options.deadline = Deadline::AfterAnchor(start, request.time_budget_s);
  }

  // One warm-start state threads greedy's incumbent into the DP (and any
  // caller-provided state carries across engine calls on the same chain).
  if (!options.warm) options.warm = std::make_shared<WarmStartState>();
  WarmStartState& warm = *options.warm;

  // Portfolio stage list: kAuto escalates greedy → DP (→ brute force on
  // tiny instances) for throughput and runs the latency DP otherwise;
  // every other policy is its one mapper.
  std::vector<SolverPolicy> stages;
  if (request.solver != SolverPolicy::kAuto) {
    stages = {request.solver};
  } else if (request.objective == MapObjective::kThroughput) {
    stages = {SolverPolicy::kGreedy, SolverPolicy::kDp};
    if (request.chain->size() <= kBruteMaxTasks && procs <= kBruteMaxProcs) {
      stages.push_back(SolverPolicy::kBrute);
    }
  } else {
    stages = {SolverPolicy::kLatency};
  }

  std::optional<MapResult> best;
  double best_value = 0.0;
  std::string ran;
  std::exception_ptr last_error;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0 && has_budget && SecondsSince(start) > request.time_budget_s) {
      response.budget_exhausted = true;
      break;
    }
    try {
      MapResult result = RunStage(stages[i], request, eval, procs, options);
      if (!ran.empty()) ran += "+";
      ran += ToString(stages[i]);
      // The quantity the stage minimized: the bottleneck effective
      // response for throughput, the path latency otherwise.
      const double value = request.objective == MapObjective::kThroughput
                               ? eval.BottleneckResponse(result.mapping)
                               : eval.Latency(result.mapping);
      // Greedy is the one heuristic stage. A stage the deadline
      // interrupted returned an incumbent, not a certified optimum: it
      // cannot claim exactness or win ties either.
      const bool stage_exact =
          stages[i] != SolverPolicy::kGreedy && !result.timed_out;
      response.timed_out = response.timed_out || result.timed_out;
      // Keep the better objective; an exact solver's result wins ties so
      // the response can claim optimality.
      const bool keep = !best || value < best_value ||
                        (stage_exact && value <= best_value);
      if (keep) {
        response.exact = stage_exact;
        best_value = value;
        best = std::move(result);
        // Feed the incumbent forward for the next stage's pruning bound.
        warm.incumbent = best->mapping;
      }
    } catch (const Infeasible&) {
      last_error = std::current_exception();
    } catch (const ResourceLimit&) {
      last_error = std::current_exception();
    }
  }
  if (!best) {
    if (last_error) std::rethrow_exception(last_error);
    throw Infeasible("MappingEngine: no solver produced a mapping");
  }

  response.mapping = std::move(best->mapping);
  response.objective_value = best_value;
  response.throughput = eval.Throughput(response.mapping);
  response.latency = eval.Latency(response.mapping);
  response.work = best->work;
  response.pruned_cells = best->pruned_cells;
  response.solver = ran;
  response.solve_seconds = SecondsSince(start);

  if (response.timed_out) PIPEMAP_COUNTER_ADD("engine.map.timed_out", 1);

  // Budget-truncated portfolios and deadline-interrupted solves are not
  // cached: the same request with a looser budget must be able to produce
  // the exact answer later.
  if (response.cacheable && !response.budget_exhausted &&
      !response.timed_out) {
    CachedSolution entry;
    entry.mapping_text = SerializeMapping(response.mapping);
    entry.objective_value = response.objective_value;
    entry.throughput = response.throughput;
    entry.latency = response.latency;
    entry.solver = response.solver;
    entry.exact = response.exact;
    cache_.Insert(response.fingerprint, entry);
    // Only clean (cacheable) results fan out to followers; unclean ones
    // fall to the publisher destructor's "no result" and each follower
    // re-solves under its own budget.
    publisher.Publish(std::move(entry));
  }
  return response;
}

std::vector<FrontierPoint> MappingEngine::Frontier(const MapRequest& request,
                                                   int num_points) {
  ValidateRequest(request);
  PIPEMAP_COUNTER_ADD("engine.frontier.calls", 1);
  const int procs = ResolveProcs(request);
  std::optional<Evaluator> owned_eval;
  const Evaluator& eval = RequestEvaluator(request, procs, &owned_eval);
  return LatencyThroughputFrontier(eval, procs, num_points,
                                   SweepOptions(request, procs));
}

ProcCountResult MappingEngine::MinProcs(const MapRequest& request,
                                        double target_throughput) {
  ValidateRequest(request);
  PIPEMAP_COUNTER_ADD("engine.min_procs.calls", 1);
  const int procs = ResolveProcs(request);
  std::optional<Evaluator> owned_eval;
  const Evaluator& eval = RequestEvaluator(request, procs, &owned_eval);
  return MinProcessorsForThroughput(eval, procs, target_throughput,
                                    SweepOptions(request, procs));
}

}  // namespace pipemap
