#include "core/latency_mapper.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/dp_mapper.h"
#include "support/error.h"
#include "workloads/fft_hist.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

TEST(LatencyMapperTest, SingleTaskMinimizesResponseTime) {
  // f(p) = 1 + 16/p + 0.5p: integer minimum at p = 5 or 6 (f = 6.7).
  const TaskChain chain = BuildChain({TaskSpec{1.0, 16.0, 0.5, 1}}, {});
  const Evaluator eval(chain, 12, kTestNodeMemory);
  const LatencyResult r = LatencyMapper().MinLatency(eval, 12);
  ASSERT_EQ(r.mapping.num_modules(), 1);
  EXPECT_EQ(r.mapping.modules[0].replicas, 1);
  const int p = r.mapping.modules[0].procs_per_instance;
  EXPECT_TRUE(p == 5 || p == 6);
  EXPECT_NEAR(r.latency, eval.Latency(r.mapping), 1e-12);
}

TEST(LatencyMapperTest, LatencyOptimumNeverReplicates) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  const LatencyResult r = LatencyMapper().MinLatency(eval, 64);
  for (const ModuleAssignment& m : r.mapping.modules) {
    EXPECT_EQ(m.replicas, 1);
  }
}

TEST(LatencyMapperTest, MergesWhenTransferDominatesLatency) {
  // A huge external edge forces a single module for latency too.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1}, TaskSpec{0.0, 1.0, 0.0, 1}},
      {EdgeSpec{0.0, 0.0, 0.0, /*e_fixed=*/100.0, 0, 0, 0, 0}});
  const Evaluator eval(chain, 8, kTestNodeMemory);
  const LatencyResult r = LatencyMapper().MinLatency(eval, 8);
  EXPECT_EQ(r.mapping.num_modules(), 1);
  // One group of 8 processors: latency = 2/8.
  EXPECT_NEAR(r.latency, 0.25, 1e-12);
}

TEST(LatencyMapperTest, LatencyIsLowerBoundForOtherMappers) {
  // No mapping — in particular not the throughput optimum — can beat the
  // latency optimum on latency.
  for (int seed = 0; seed < 10; ++seed) {
    workloads::SyntheticSpec spec;
    spec.num_tasks = 4;
    spec.machine_procs = 16;
    spec.comm_comp_ratio = 0.5;
    const Workload w = workloads::MakeSynthetic(spec, 6000 + seed);
    const Evaluator eval(w.chain, 16, w.machine.node_memory_bytes);
    const LatencyResult lat = LatencyMapper().MinLatency(eval, 16);
    const MapResult thr = DpMapper().Map(eval, 16);
    EXPECT_LE(lat.latency, eval.Latency(thr.mapping) + 1e-9)
        << "seed " << seed;
  }
}

TEST(LatencyMapperTest, ThroughputFloorIsRespected) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  const MapResult max_thr = DpMapper().Map(eval, 64);
  const double floor = 0.6 * max_thr.throughput;
  const LatencyResult r =
      LatencyMapper().MinLatencyWithThroughput(eval, 64, floor);
  EXPECT_GE(r.throughput, floor - 1e-9);
  // Meeting a throughput floor costs latency relative to the free optimum.
  const LatencyResult free_opt = LatencyMapper().MinLatency(eval, 64);
  EXPECT_GE(r.latency, free_opt.latency - 1e-9);
}

TEST(LatencyMapperTest, TightFloorMatchesThroughputOptimum) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  const MapResult max_thr = DpMapper().Map(eval, 64);
  // A floor just below the maximum forces (essentially) the throughput-
  // optimal structure.
  const LatencyResult r = LatencyMapper().MinLatencyWithThroughput(
      eval, 64, max_thr.throughput * (1.0 - 1e-9));
  EXPECT_GE(r.throughput, max_thr.throughput * (1.0 - 1e-6));
}

TEST(LatencyMapperTest, UnreachableFloorThrows) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  const MapResult max_thr = DpMapper().Map(eval, 64);
  EXPECT_THROW(LatencyMapper().MinLatencyWithThroughput(
                   eval, 64, 2.0 * max_thr.throughput),
               Infeasible);
}

TEST(MinProcessorsForThroughputTest, FindsMinimalBudget) {
  // Two perfectly parallel tasks of 1s of work each, free communication:
  // throughput on (p0, p1) is min(p0, p1); to reach 3.0, 6 processors are
  // necessary and sufficient.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, false}, TaskSpec{0.0, 1.0, 0.0, 1, false}},
      {EdgeSpec{}});
  const Evaluator eval(chain, 16, kTestNodeMemory);
  MapperOptions options;
  options.allow_clustering = false;  // keep the arithmetic transparent
  const ProcCountResult r =
      MinProcessorsForThroughput(eval, 16, 3.0, options);
  EXPECT_EQ(r.procs, 6);
  EXPECT_GE(r.throughput, 3.0);
}

TEST(MinProcessorsForThroughputTest, MonotoneInTarget) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  int prev = 0;
  for (double target : {10.0, 40.0, 80.0, 120.0}) {
    const ProcCountResult r = MinProcessorsForThroughput(eval, 64, target);
    EXPECT_GE(r.procs, prev);
    EXPECT_GE(r.throughput, target);
    prev = r.procs;
  }
}

TEST(MinProcessorsForThroughputTest, UnreachableTargetThrows) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  EXPECT_THROW(MinProcessorsForThroughput(eval, 64, 1e6), Infeasible);
}

TEST(FrontierTest, IsMonotoneAndSpansTheRange) {
  const Workload w = workloads::MakeFftHist(256, CommMode::kMessage);
  const Evaluator eval(w.chain, 64, w.machine.node_memory_bytes);
  const auto frontier = LatencyThroughputFrontier(eval, 64, 8);
  ASSERT_GE(frontier.size(), 2u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].throughput, frontier[i - 1].throughput);
    EXPECT_GT(frontier[i].latency, frontier[i - 1].latency);
  }
  const MapResult max_thr = DpMapper().Map(eval, 64);
  EXPECT_NEAR(frontier.back().throughput, max_thr.throughput,
              0.02 * max_thr.throughput);
  const LatencyResult min_lat = LatencyMapper().MinLatency(eval, 64);
  EXPECT_NEAR(frontier.front().latency, min_lat.latency,
              0.02 * min_lat.latency);
}

TEST(FrontierTest, EachPointSatisfiesItsOwnThroughput) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 3;
  spec.machine_procs = 16;
  spec.comm_comp_ratio = 0.4;
  const Workload w = workloads::MakeSynthetic(spec, 13);
  const Evaluator eval(w.chain, 16, w.machine.node_memory_bytes);
  for (const FrontierPoint& p : LatencyThroughputFrontier(eval, 16, 6)) {
    EXPECT_NEAR(p.throughput, eval.Throughput(p.mapping), 1e-9);
    EXPECT_NEAR(p.latency, eval.Latency(p.mapping), 1e-9);
  }
}

// Exact-reference properties: the pure latency DP matches exhaustive
// search (under every comparison feasibility table; only a restricted one
// may leave no mapping, and then both must say so); the
// throughput-constrained mode (a union of two exact configuration
// families) never beats the true optimum and rarely trails it.
class LatencyVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(LatencyVsBrute, PureLatencyDpIsExact) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 3;
  spec.machine_procs = 8;
  spec.comm_comp_ratio = 0.5;
  spec.memory_tightness = 0.25;
  const Workload w = workloads::MakeSynthetic(spec, 7100 + GetParam());
  const Evaluator eval(w.chain, 8, w.machine.node_memory_bytes);
  const std::vector<FeasibleProcs> tables = testing::ComparisonTables(8);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    SCOPED_TRACE("table " + std::to_string(t));
    MapperOptions options;
    options.proc_feasible = tables[t];
    BruteForceOptions brute_options;
    brute_options.base = options;

    LatencyBruteResult brute;
    try {
      brute = BruteForceMinLatency(eval, 8, 0.0, brute_options);
    } catch (const Infeasible&) {
      if (t == 0) throw;
      EXPECT_THROW(LatencyMapper(options).MinLatency(eval, 8), Infeasible);
      continue;
    }
    const LatencyResult dp = LatencyMapper(options).MinLatency(eval, 8);
    EXPECT_NEAR(dp.latency, brute.latency, 1e-9 * brute.latency)
        << "dp: " << dp.mapping.ToString(w.chain)
        << "\nbrute: " << brute.mapping.ToString(w.chain);
  }
}

TEST_P(LatencyVsBrute, ConstrainedModeIsSoundAndNearExact) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 3;
  spec.machine_procs = 8;
  spec.comm_comp_ratio = 0.4;
  spec.memory_tightness = 0.2;
  spec.replicable_fraction = 0.8;
  const Workload w = workloads::MakeSynthetic(spec, 7200 + GetParam());
  const Evaluator eval(w.chain, 8, w.machine.node_memory_bytes);
  const MapResult max_thr = DpMapper().Map(eval, 8);
  const double floor = 0.7 * max_thr.throughput;

  const LatencyResult dp =
      LatencyMapper().MinLatencyWithThroughput(eval, 8, floor);
  const LatencyBruteResult brute = BruteForceMinLatency(eval, 8, floor);
  // Soundness: the floor holds and the heuristic cannot beat the optimum.
  EXPECT_GE(dp.throughput, floor - 1e-9);
  EXPECT_GE(dp.latency, brute.latency - 1e-9);
  // Quality: within 15% of the exact optimum on these instances.
  EXPECT_LE(dp.latency, 1.15 * brute.latency)
      << "dp: " << dp.mapping.ToString(w.chain)
      << "\nbrute: " << brute.mapping.ToString(w.chain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatencyVsBrute, ::testing::Range(0, 15));

TEST(LatencyMapperTest, ColdSolveKeepsAnOptimalHeuristicIncumbent) {
  // Five singletons on five processors: the only mapping, so the DP's own
  // singleton incumbent is the optimum. The incumbent's path sum used to
  // associate as v + (body + out) where the sweep computes
  // (v + body) + out; an ulp below the sweep's value, it pruned the one
  // mapping and the solve threw Infeasible.
  workloads::SyntheticSpec spec;
  spec.num_tasks = 5;
  spec.machine_procs = 5;
  spec.replicable_fraction = 0.0;
  spec.comm_comp_ratio = 2.85;
  spec.memory_tightness = 0.0;
  const Workload w = workloads::MakeSynthetic(spec, 5015);
  const Evaluator eval(w.chain, 5, w.machine.node_memory_bytes);
  MapperOptions options;
  options.allow_clustering = false;
  BruteForceOptions brute_options;
  brute_options.base = options;
  const LatencyBruteResult brute =
      BruteForceMinLatency(eval, 5, 0.0, brute_options);
  const LatencyResult dp = LatencyMapper(options).MinLatency(eval, 5);
  EXPECT_EQ(dp.mapping, brute.mapping);
  EXPECT_DOUBLE_EQ(dp.latency, brute.latency);
}

TEST(LatencyMapperTest, InvalidArgumentsThrow) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 8, kTestNodeMemory);
  EXPECT_THROW(LatencyMapper().MinLatencyWithThroughput(eval, 8, 0.0),
               InvalidArgument);
  EXPECT_THROW(MinProcessorsForThroughput(eval, 0, 1.0), InvalidArgument);
  EXPECT_THROW(LatencyThroughputFrontier(eval, 8, 1), InvalidArgument);
}

}  // namespace
}  // namespace pipemap
