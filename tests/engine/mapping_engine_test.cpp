// MappingEngine facade tests: solver portfolio, cache identity, warm-start
// sweeps and warm states across requests, and provenance.
#include "engine/mapping_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/latency_mapper.h"
#include "costmodel/cost_function.h"
#include "io/serialize.h"
#include "machine/feasible.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/metrics.h"
#include "workloads/fft_hist.h"
#include "workloads/radar.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

/// A small machine whose node memory matches the BuildChain convention, so
/// memory minima in TaskSpec::min_procs behave as written.
MachineConfig SmallMachine() {
  MachineConfig machine;
  machine.name = "test4x4";
  machine.grid_rows = 4;
  machine.grid_cols = 4;
  machine.node_memory_bytes = kTestNodeMemory;
  return machine;
}

TaskChain ThreeTaskChain() {
  return BuildChain(
      {TaskSpec{0.0, 1.0, 0.01, 1, true}, TaskSpec{0.0, 2.0, 0.01, 1, true},
       TaskSpec{0.0, 1.0, 0.01, 1, true}},
      {EdgeSpec{0.1, 0.0, 0.0, 0.2, 0, 0, 0, 0},
       EdgeSpec{0.1, 0.0, 0.0, 0.2, 0, 0, 0, 0}});
}

MapRequest RequestFor(const TaskChain& chain, const MachineConfig& machine) {
  MapRequest request;
  request.chain = &chain;
  request.machine = machine;
  return request;
}

/// Runs of one portfolio stage so far in this process (its
/// engine.solver.* counter; counted under ScopedMetricsEnable).
std::uint64_t StageRuns(const std::string& stage) {
  return MetricsRegistry::Global()
      .GetCounter("engine.solver." + stage)
      ->Total();
}

TEST(MappingEngineTest, AllFourSolversReachable) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  for (const SolverPolicy policy :
       {SolverPolicy::kDp, SolverPolicy::kGreedy, SolverPolicy::kBrute}) {
    MapRequest request = RequestFor(chain, machine);
    request.solver = policy;
    const MapResponse response = engine.Map(request);
    EXPECT_EQ(response.solver, ToString(policy));
    // Greedy is the one heuristic; the DP and brute force are exact.
    EXPECT_EQ(response.exact, policy != SolverPolicy::kGreedy)
        << ToString(policy);
    EXPECT_GT(response.throughput, 0.0);
    EXPECT_TRUE(response.mapping.IsValidFor(chain.size()));
  }

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kLatency;
  request.objective = MapObjective::kLatency;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "latency");
  EXPECT_GT(response.latency, 0.0);
}

TEST(MappingEngineTest, ExactSolversAgreeThroughTheFacade) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest dp = RequestFor(chain, machine);
  dp.solver = SolverPolicy::kDp;
  MapRequest brute = dp;
  brute.solver = SolverPolicy::kBrute;
  const MapResponse dp_response = engine.Map(dp);
  const MapResponse brute_response = engine.Map(brute);
  EXPECT_NEAR(dp_response.throughput, brute_response.throughput, 1e-12);
  EXPECT_TRUE(dp_response.exact);
  EXPECT_TRUE(brute_response.exact);
}

TEST(MappingEngineTest, AutoRunsGreedyThenDpAndIsExact) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kAuto;
  const ScopedMetricsEnable metrics(true);
  const std::uint64_t greedy_runs = StageRuns("greedy");
  const std::uint64_t dp_runs = StageRuns("dp");
  const std::uint64_t brute_runs = StageRuns("brute");
  const MapResponse response = engine.Map(request);
  // 3 tasks on 16 procs: above the brute-force ceiling of 10 procs, so
  // greedy + dp only.
  EXPECT_EQ(response.solver, "greedy+dp");
  EXPECT_TRUE(response.exact);
  EXPECT_EQ(StageRuns("greedy") - greedy_runs, 1u);
  EXPECT_EQ(StageRuns("dp") - dp_runs, 1u);
  EXPECT_EQ(StageRuns("brute") - brute_runs, 0u);

  MapRequest dp = request;
  dp.solver = SolverPolicy::kDp;
  const MapResponse dp_response = engine.Map(dp);
  EXPECT_NEAR(response.throughput, dp_response.throughput, 1e-12);
}

TEST(MappingEngineTest, AutoCertifiesWithBruteOnTinyInstances) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, true}, TaskSpec{0.0, 1.0, 0.0, 1, true}},
      {EdgeSpec{}});
  MachineConfig machine = SmallMachine();
  machine.grid_rows = 2;
  machine.grid_cols = 2;  // 4 procs, within the brute-force ceiling
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kAuto;
  const ScopedMetricsEnable metrics(true);
  const std::uint64_t brute_runs = StageRuns("brute");
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "greedy+dp+brute");
  EXPECT_TRUE(response.exact);
  EXPECT_EQ(StageRuns("brute") - brute_runs, 1u);
}

TEST(MappingEngineTest, AutoLatencyUsesLatencySolver) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;
  MapRequest request = RequestFor(chain, SmallMachine());
  request.objective = MapObjective::kLatency;
  const ScopedMetricsEnable metrics(true);
  const std::uint64_t latency_runs = StageRuns("latency");
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "latency");
  EXPECT_TRUE(response.exact);
  EXPECT_NEAR(response.objective_value, response.latency, 1e-12);
  EXPECT_EQ(StageRuns("latency") - latency_runs, 1u);
}

TEST(MappingEngineTest, CachedMappingIsByteIdenticalToRecomputed) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kDp;
  const MapResponse cold = engine.Map(request);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cold.cacheable);

  const MapResponse warm = engine.Map(request);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  // Byte identity: the serialized mappings match exactly.
  EXPECT_EQ(SerializeMapping(warm.mapping), SerializeMapping(cold.mapping));
  EXPECT_EQ(warm.throughput, cold.throughput);
  EXPECT_EQ(warm.objective_value, cold.objective_value);
  EXPECT_EQ(warm.solver, cold.solver);

  // And against a fresh, cache-bypassing solve.
  MapRequest fresh = request;
  fresh.use_cache = false;
  const MapResponse recomputed = engine.Map(fresh);
  EXPECT_FALSE(recomputed.cache_hit);
  EXPECT_EQ(SerializeMapping(recomputed.mapping),
            SerializeMapping(warm.mapping));

  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // use_cache=false never touches the cache
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(MappingEngineTest, FingerprintSeparatesProblems) {
  const TaskChain chain = ThreeTaskChain();
  const MachineConfig machine = SmallMachine();
  MappingEngine engine;

  MapRequest base = RequestFor(chain, machine);
  const std::uint64_t fp = engine.Fingerprint(base);

  MapRequest fewer_procs = base;
  fewer_procs.total_procs = 8;
  EXPECT_NE(engine.Fingerprint(fewer_procs), fp);

  MapRequest latency = base;
  latency.objective = MapObjective::kLatency;
  EXPECT_NE(engine.Fingerprint(latency), fp);

  MapRequest greedy = base;
  greedy.solver = SolverPolicy::kGreedy;
  EXPECT_NE(engine.Fingerprint(greedy), fp);

  MapRequest no_clustering = base;
  no_clustering.options.allow_clustering = false;
  EXPECT_NE(engine.Fingerprint(no_clustering), fp);

  MapRequest unconstrained = base;
  unconstrained.machine_feasibility = false;
  EXPECT_NE(engine.Fingerprint(unconstrained), fp);

  MapRequest bigger_machine = base;
  bigger_machine.machine.grid_rows = 8;
  EXPECT_NE(engine.Fingerprint(bigger_machine), fp);

  // f_ecom differing only at one (ps, pr) off the serializer's sample
  // axis for P=64 (1..16, 22, 28, ..., 64) is a different problem.
  const auto two_tasks = [](double bump) {
    ChainCostModel costs;
    costs.AddTask(std::make_unique<PolyScalarCost>(0.0, 1.0, 0.0),
                  MemorySpec{});
    costs.AddTask(std::make_unique<PolyScalarCost>(0.0, 1.0, 0.0),
                  MemorySpec{});
    costs.SetEdge(0, std::make_unique<PolyScalarCost>(0.0, 0.0, 0.0),
                  std::make_unique<CallbackPairCost>([bump](int ps, int pr) {
                    return 0.01 + (ps == 20 && pr == 33 ? bump : 0.0);
                  }));
    return TaskChain({Task{"a", true}, Task{"b", true}}, std::move(costs));
  };
  const TaskChain plain = two_tasks(0.0);
  const TaskChain spiked = two_tasks(1.0);
  MapRequest plain_request = RequestFor(plain, machine);
  plain_request.machine.grid_rows = 8;
  plain_request.machine.grid_cols = 8;
  MapRequest spiked_request = plain_request;
  spiked_request.chain = &spiked;
  EXPECT_NE(engine.Fingerprint(spiked_request),
            engine.Fingerprint(plain_request));

  // Above the tabulation limit (P > 512) the Evaluator has no content
  // hashes to key on: key 0, and the request bypasses the cache.
  MapRequest untabulated = base;
  untabulated.machine.grid_rows = 24;
  untabulated.machine.grid_cols = 24;
  untabulated.solver = SolverPolicy::kGreedy;
  EXPECT_EQ(engine.Fingerprint(untabulated), 0u);
  const MapResponse uncached = engine.Map(untabulated);
  EXPECT_FALSE(uncached.cacheable);
  EXPECT_EQ(uncached.fingerprint, 0u);

  // Execution knobs must NOT move the fingerprint.
  MapRequest threaded = base;
  threaded.options.num_threads = 4;
  threaded.options.observe = true;
  EXPECT_EQ(engine.Fingerprint(threaded), fp);
}

TEST(MappingEngineTest, CustomFeasibilityTableIsCached) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  // A caller's table is keyed like the machine's: the second Map is a
  // memory hit with the same mapping.
  MapRequest request = RequestFor(chain, SmallMachine());
  request.options.proc_feasible = FeasibleProcs({1, 2});
  const std::uint64_t key = engine.Fingerprint(request);
  EXPECT_NE(key, 0u);
  const MapResponse first = engine.Map(request);
  EXPECT_TRUE(first.cacheable);
  EXPECT_FALSE(first.cache_hit);
  for (const ModuleAssignment& m : first.mapping.modules) {
    EXPECT_LE(m.procs_per_instance, 2);
  }
  const MapResponse second = engine.Map(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cache_tier, "memory");
  EXPECT_EQ(second.fingerprint, key);
  EXPECT_EQ(SerializeMapping(second.mapping),
            SerializeMapping(first.mapping));

  // Changing one admitted count moves the key.
  MapRequest moved = request;
  moved.options.proc_feasible = FeasibleProcs({1, 3});
  EXPECT_NE(engine.Fingerprint(moved), key);

  // The machine's table, resolved by the engine or passed explicitly, is
  // one key.
  const MapRequest resolved = RequestFor(chain, SmallMachine());
  MapRequest explicit_table = resolved;
  explicit_table.options.proc_feasible =
      FeasibilityChecker(resolved.machine).ProcCountPredicate();
  EXPECT_EQ(engine.Fingerprint(explicit_table), engine.Fingerprint(resolved));

  // Every count is a rectangle of a 1xP grid, so there machine
  // feasibility on and off present the solvers with one problem.
  MapRequest row = RequestFor(chain, SmallMachine());
  row.machine.grid_rows = 1;
  row.machine.grid_cols = 16;
  MapRequest unconstrained = row;
  unconstrained.machine_feasibility = false;
  EXPECT_EQ(engine.Fingerprint(unconstrained), engine.Fingerprint(row));
}

TEST(MappingEngineTest, MachineTableOnAHugeGridIsBoundedByTheBudget) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;
  // The machine's table is resolved over 1..procs only, so grids whose
  // area overflows int, or would take gigabytes to tabulate, cost what an
  // 8-processor budget costs. Every count up to 8 is a 1 x p or p x 1
  // rectangle there, so machine feasibility on and off are one problem.
  const int kMaxInt = std::numeric_limits<int>::max();
  for (const auto& [rows, cols] :
       {std::pair{65536, 65537}, std::pair{1, kMaxInt},
        std::pair{kMaxInt, 1}, std::pair{40000, 50000}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    MapRequest request = RequestFor(chain, SmallMachine());
    request.machine.grid_rows = rows;
    request.machine.grid_cols = cols;
    request.total_procs = 8;
    const MapResponse response = engine.Map(request);
    EXPECT_TRUE(response.cacheable);
    EXPECT_TRUE(response.mapping.IsValidFor(chain.size()));
    EXPECT_LE(response.mapping.TotalProcs(), 8);
    MapRequest unconstrained = request;
    unconstrained.machine_feasibility = false;
    EXPECT_EQ(engine.Fingerprint(unconstrained), response.fingerprint);
    EXPECT_FALSE(engine.Frontier(request, 3).empty());
    EXPECT_LE(engine.MinProcs(request, 0.5 * response.throughput).procs, 8);
  }
}

TEST(MappingEngineTest, TinyTimeBudgetStopsAfterGreedyAndIsNotCached) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kAuto;
  request.time_budget_s = 1e-9;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "greedy");
  EXPECT_TRUE(response.budget_exhausted);
  EXPECT_FALSE(response.exact);

  // The truncated answer must not poison the cache: re-asking with an
  // unlimited budget gets the exact portfolio, not a stale hit.
  MapRequest full = request;
  full.time_budget_s = std::numeric_limits<double>::infinity();
  const MapResponse exact = engine.Map(full);
  EXPECT_FALSE(exact.cache_hit);
  EXPECT_TRUE(exact.exact);
}

TEST(MappingEngineTest, NonPositiveBudgetMeansUnlimited) {
  // The pinned contract (Deadline::HasBudget): zero, negative, and
  // infinite budgets all mean "no budget". A caller that leaves a
  // protocol field at 0 gets the full portfolio, never a solve that
  // expires at the starting line.
  const TaskChain chain = ThreeTaskChain();
  for (const double budget :
       {0.0, -1.0, std::numeric_limits<double>::infinity()}) {
    MappingEngine engine;
    MapRequest request = RequestFor(chain, SmallMachine());
    request.solver = SolverPolicy::kAuto;
    request.time_budget_s = budget;
    const MapResponse response = engine.Map(request);
    EXPECT_FALSE(response.budget_exhausted) << "budget " << budget;
    EXPECT_FALSE(response.timed_out) << "budget " << budget;
    EXPECT_TRUE(response.exact) << "budget " << budget;
  }
}

TEST(MappingEngineTest, SolverDeadlineReturnsIncumbentWithProvenance) {
  // A deadline far below the exact DP's runtime interrupts the solve
  // mid-stage: the response is the heuristic incumbent, valid and usable,
  // flagged timed_out, never exact, and never cached.
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.time_budget_s = 1e-9;
  const MapResponse truncated = engine.Map(request);
  EXPECT_TRUE(truncated.timed_out);
  EXPECT_FALSE(truncated.exact);
  EXPECT_TRUE(truncated.mapping.IsValidFor(chain.size()));
  EXPECT_GT(truncated.throughput, 0.0);

  // Re-asking without the deadline must solve fresh (no stale hit) and
  // certify; the incumbent can never beat the true optimum.
  MapRequest full = request;
  full.time_budget_s = std::numeric_limits<double>::infinity();
  const MapResponse exact = engine.Map(full);
  EXPECT_FALSE(exact.cache_hit);
  EXPECT_FALSE(exact.timed_out);
  EXPECT_TRUE(exact.exact);
  EXPECT_LE(exact.objective_value, truncated.objective_value + 1e-12);
}

TEST(MappingEngineTest, ExplicitDeadlineOptionTakesPrecedence) {
  // An already-expired MapperOptions::deadline interrupts even when the
  // request's own budget is unlimited.
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;

  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.options.deadline = Deadline::After(0.0);
  const MapResponse response = engine.Map(request);
  EXPECT_TRUE(response.timed_out);
  EXPECT_TRUE(response.mapping.IsValidFor(chain.size()));
}

TEST(MappingEngineTest, CacheEvictsUnderPressure) {
  // More distinct requests than the engine's cache holds (SolutionCache's
  // 256 entries in 8 shards): every solve is inserted, and the overflow
  // is evicted.
  MappingEngine engine;
  const TaskChain chain = ThreeTaskChain();
  MachineConfig machine = SmallMachine();
  machine.grid_rows = 20;
  machine.grid_cols = 20;

  MapRequest request = RequestFor(chain, machine);
  request.solver = SolverPolicy::kGreedy;
  constexpr std::size_t kRequests = 300;
  for (std::size_t i = 0; i < kRequests; ++i) {
    request.total_procs = 4 + static_cast<int>(i);
    engine.Map(request);
  }
  const SolutionCacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.capacity, 256u);
  EXPECT_EQ(stats.inserts, kRequests);
  EXPECT_LE(stats.entries, stats.capacity);
  EXPECT_GE(stats.evictions, kRequests - stats.capacity);
  EXPECT_EQ(stats.entries + stats.evictions, stats.inserts);
}

TEST(MappingEngineTest, FrontierMatchesDirectSweep) {
  const Workload radar = workloads::MakeRadar(CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &radar.chain;
  request.machine = radar.machine;
  const std::vector<FrontierPoint> warm = engine.Frontier(request, 6);
  ASSERT_FALSE(warm.empty());

  // Cold reference: the engine sweep must trace the identical frontier.
  const Evaluator eval(radar.chain, radar.machine.total_procs(),
                       radar.machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible =
      FeasibilityChecker(radar.machine).ProcCountPredicate();
  const std::vector<FrontierPoint> cold =
      LatencyThroughputFrontier(eval, radar.machine.total_procs(), 6,
                                options);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].mapping, cold[i].mapping) << "point " << i;
    EXPECT_EQ(warm[i].throughput, cold[i].throughput);
    EXPECT_EQ(warm[i].latency, cold[i].latency);
  }
}

// Regression: FFT-Hist 512 has memory minima that make module configs
// invalid under tight frontier floors, so the incumbent carried from an
// earlier floor lands on tables where a LATER module's config is invalid.
// Its evaluation must reject the clustering as infeasible (kInf), not
// reach the evaluator with a zero processor count.
TEST(MappingEngineTest, FrontierSurvivesInvalidWarmIncumbents) {
  const Workload fft = workloads::MakeFftHist(512, CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &fft.chain;
  request.machine = fft.machine;
  const std::vector<FrontierPoint> warm = engine.Frontier(request, 6);
  ASSERT_FALSE(warm.empty());

  const Evaluator eval(fft.chain, fft.machine.total_procs(),
                       fft.machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible =
      FeasibilityChecker(fft.machine).ProcCountPredicate();
  const std::vector<FrontierPoint> cold =
      LatencyThroughputFrontier(eval, fft.machine.total_procs(), 6, options);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].mapping, cold[i].mapping) << "point " << i;
    EXPECT_EQ(warm[i].throughput, cold[i].throughput);
    EXPECT_EQ(warm[i].latency, cold[i].latency);
  }
}

TEST(MappingEngineTest, MinProcsMatchesDirectSearch) {
  const Workload radar = workloads::MakeRadar(CommMode::kMessage);
  MappingEngine engine;

  MapRequest request;
  request.chain = &radar.chain;
  request.machine = radar.machine;

  // Target half the machine's best throughput.
  const MapResponse best = engine.Map(request);
  const double target = best.throughput / 2.0;

  const ProcCountResult sized = engine.MinProcs(request, target);
  EXPECT_GE(sized.throughput, target);

  const Evaluator eval(radar.chain, radar.machine.total_procs(),
                       radar.machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible =
      FeasibilityChecker(radar.machine).ProcCountPredicate();
  const ProcCountResult cold = MinProcessorsForThroughput(
      eval, radar.machine.total_procs(), target, options);
  EXPECT_EQ(sized.procs, cold.procs);
  EXPECT_EQ(sized.mapping, cold.mapping);
}

// Regression: one caller-supplied WarmStartState reused across two Map
// calls on the same chain, first at node memory m and then at m/2. Each
// Map builds its Evaluator in the same stack slot, and range tables once
// pooled in the warm state and found again by that address answered the
// second call with the first call's configurations: modules below the
// halved memory's minimum, then served to later requests from the cache.
// Every DP solve now tabulates its own tables; only the incumbent
// carries, and it is re-evaluated under the new memory minima.
TEST(MappingEngineTest, WarmStateAcrossMemoryChangeMatchesAFreshEngine) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 6;
  spec.machine_procs = 32;
  spec.memory_tightness = 0.5;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload w = workloads::MakeSynthetic(spec, seed);
    MapRequest roomy;
    roomy.chain = &w.chain;
    roomy.machine = w.machine;
    roomy.solver = SolverPolicy::kDp;
    roomy.options.num_threads = 1;
    MapRequest tight = roomy;
    tight.machine.node_memory_bytes = w.machine.node_memory_bytes / 2;

    MapResponse fresh;
    try {
      fresh = MappingEngine().Map(tight);
    } catch (const Infeasible&) {
      continue;  // m/2 leaves some task without enough processors
    }
    MappingEngine engine;
    const auto warm = std::make_shared<WarmStartState>();
    roomy.options.warm = warm;
    tight.options.warm = warm;
    engine.Map(roomy);
    const MapResponse second = engine.Map(tight);
    EXPECT_EQ(second.mapping, fresh.mapping);
    EXPECT_EQ(second.objective_value, fresh.objective_value);
    const Evaluator eval(w.chain, w.machine.total_procs(),
                         tight.machine.node_memory_bytes);
    for (const ModuleAssignment& m : second.mapping.modules) {
      EXPECT_GE(m.procs_per_instance, eval.MinProcs(m.first_task, m.last_task))
          << "module " << m.first_task << ".." << m.last_task;
    }

    // A later request without the warm state is answered from the cache,
    // which must hold the fresh answer.
    tight.options.warm = nullptr;
    const MapResponse later = engine.Map(tight);
    EXPECT_TRUE(later.cache_hit);
    EXPECT_EQ(later.mapping, fresh.mapping);
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

TEST(MappingEngineTest, ProvenanceIsComplete) {
  const TaskChain chain = ThreeTaskChain();
  MappingEngine engine;
  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kAuto;
  request.trace_id = 0x1234;
  const MapResponse response = engine.Map(request);
  EXPECT_EQ(response.solver, "greedy+dp");
  EXPECT_TRUE(response.exact);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.cache_tier, "");
  EXPECT_FALSE(response.shared_solve);
  EXPECT_TRUE(response.cacheable);
  EXPECT_NE(response.fingerprint, 0u);
  EXPECT_EQ(response.fingerprint, engine.Fingerprint(request));
  EXPECT_FALSE(response.budget_exhausted);
  EXPECT_FALSE(response.timed_out);
  EXPECT_GT(response.solve_seconds, 0.0);
  EXPECT_GT(response.work, 0u);
  EXPECT_EQ(response.trace_id, 0x1234u);
  const Evaluator eval(chain, 16, kTestNodeMemory);
  EXPECT_EQ(response.throughput, eval.Throughput(response.mapping));
  EXPECT_EQ(response.latency, eval.Latency(response.mapping));
  EXPECT_EQ(response.objective_value,
            eval.BottleneckResponse(response.mapping));
}

TEST(MappingEngineTest, InvalidRequestsThrow) {
  MappingEngine engine;
  MapRequest no_chain;
  EXPECT_THROW(engine.Map(no_chain), InvalidArgument);

  const TaskChain chain = ThreeTaskChain();
  MapRequest bad_floor = RequestFor(chain, SmallMachine());
  bad_floor.objective = MapObjective::kLatencyWithFloor;
  EXPECT_THROW(engine.Map(bad_floor), InvalidArgument);

  MapRequest floor = RequestFor(chain, SmallMachine());
  floor.objective = MapObjective::kLatencyWithFloor;
  floor.min_throughput = 0.5;
  EXPECT_NO_THROW(engine.Map(floor));

  // A policy answers only the objectives its mapper optimizes. A
  // mismatched pair is rejected before the request misses the cache or
  // leads a single-flight solve.
  const struct {
    SolverPolicy solver;
    MapObjective objective;
    bool supported;
  } pairs[] = {
      {SolverPolicy::kDp, MapObjective::kLatency, false},
      {SolverPolicy::kDp, MapObjective::kLatencyWithFloor, false},
      {SolverPolicy::kGreedy, MapObjective::kLatency, false},
      {SolverPolicy::kGreedy, MapObjective::kLatencyWithFloor, false},
      {SolverPolicy::kLatency, MapObjective::kThroughput, false},
      {SolverPolicy::kBrute, MapObjective::kLatency, true},
      {SolverPolicy::kBrute, MapObjective::kLatencyWithFloor, true},
      {SolverPolicy::kLatency, MapObjective::kLatencyWithFloor, true},
  };
  for (const auto& pair : pairs) {
    MapRequest request = floor;
    request.solver = pair.solver;
    request.objective = pair.objective;
    const std::uint64_t misses = engine.cache().stats().misses;
    const std::uint64_t leaders = engine.single_flight_stats().leaders;
    if (pair.supported) {
      EXPECT_NO_THROW(engine.Map(request)) << ToString(pair.solver);
      continue;
    }
    EXPECT_THROW(engine.Map(request), InvalidArgument)
        << ToString(pair.solver) << " / " << ToString(pair.objective);
    EXPECT_EQ(engine.cache().stats().misses, misses);
    EXPECT_EQ(engine.single_flight_stats().leaders, leaders);
  }
}

/// A fresh, empty scratch directory under gtest's per-test temp root.
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("pipemap_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(MappingEngineTest, PersistentTierServesRestartedProcessFromDisk) {
  const std::string dir = ScratchDir("engine_restart");
  EngineConfig config;
  config.cache_dir = dir;
  const TaskChain chain = ThreeTaskChain();
  std::string cold_text;
  {
    MappingEngine writer(config);
    MapRequest request = RequestFor(chain, SmallMachine());
    request.solver = SolverPolicy::kDp;
    request.use_cache = true;
    const MapResponse cold = writer.Map(request);
    EXPECT_FALSE(cold.cache_hit);
    cold_text = SerializeMapping(cold.mapping);
    writer.cache().FlushPersistence();
  }

  // A new engine ("restarted process") on the same directory answers the
  // fingerprint from disk — byte-identical, no re-solve — and from memory
  // on the repeat, because the disk hit rehydrated its LRU.
  MappingEngine engine(config);
  MapRequest request = RequestFor(chain, SmallMachine());
  request.solver = SolverPolicy::kDp;
  request.use_cache = true;
  const MapResponse disk = engine.Map(request);
  EXPECT_TRUE(disk.cache_hit);
  EXPECT_EQ(disk.cache_tier, "disk");
  EXPECT_EQ(SerializeMapping(disk.mapping), cold_text);
  const MapResponse memory = engine.Map(request);
  EXPECT_TRUE(memory.cache_hit);
  EXPECT_EQ(memory.cache_tier, "memory");
  EXPECT_EQ(engine.cache().stats().persist.hits, 1u);
}

}  // namespace
}  // namespace pipemap
