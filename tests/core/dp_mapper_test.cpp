#include "core/dp_mapper.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "support/error.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

TEST(DpMapperTest, SingleTaskUsesBestProcessorCount) {
  // exec(p) = 1 + 16/p + 0.5p has its minimum at p = sqrt(32) ~ 5.66, i.e.
  // 6 processors beat using all 12 — the optimal mapping must not use the
  // whole machine.
  const TaskChain chain = BuildChain({TaskSpec{1.0, 16.0, 0.5, 1, false}}, {});
  const Evaluator eval(chain, 12, kTestNodeMemory);
  const MapResult result = DpMapper().Map(eval, 12);
  ASSERT_EQ(result.mapping.num_modules(), 1);
  const int p = result.mapping.modules[0].procs_per_instance;
  EXPECT_TRUE(p == 5 || p == 6) << "got " << p;
  EXPECT_EQ(result.mapping.modules[0].replicas, 1);
}

TEST(DpMapperTest, ReplicatesPerfectlyReplicableTask) {
  // With a fixed sequential term, replication beats width.
  const TaskChain chain = BuildChain({TaskSpec{1.0, 4.0, 0.0, 1, true}}, {});
  const Evaluator eval(chain, 8, kTestNodeMemory);
  const MapResult result = DpMapper().Map(eval, 8);
  ASSERT_EQ(result.mapping.num_modules(), 1);
  EXPECT_EQ(result.mapping.modules[0].replicas, 8);
  EXPECT_EQ(result.mapping.modules[0].procs_per_instance, 1);
  EXPECT_NEAR(result.throughput, 8.0 / 5.0, 1e-9);
}

TEST(DpMapperTest, RespectsMemoryMinimumInReplication) {
  const TaskChain chain = BuildChain({TaskSpec{1.0, 4.0, 0.0, 3, true}}, {});
  const Evaluator eval(chain, 10, kTestNodeMemory);
  const MapResult result = DpMapper().Map(eval, 10);
  // floor(10/3) = 3 replicas of 3 processors.
  EXPECT_EQ(result.mapping.modules[0].replicas, 3);
  EXPECT_EQ(result.mapping.modules[0].procs_per_instance, 3);
}

TEST(DpMapperTest, ClustersWhenTransferDominates) {
  // Expensive external edge, free internal edge: one module wins.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, false}, TaskSpec{0.0, 1.0, 0.0, 1, false}},
      {EdgeSpec{0.0, 0.0, 0.0, /*e_fixed=*/100.0, 0, 0, 0, 0}});
  const Evaluator eval(chain, 8, kTestNodeMemory);
  const MapResult result = DpMapper().Map(eval, 8);
  EXPECT_EQ(result.mapping.num_modules(), 1);
}

TEST(DpMapperTest, SplitsWhenInternalRedistributionDominates) {
  // Free external edge, expensive internal edge: separate modules win.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, false}, TaskSpec{0.0, 1.0, 0.0, 1, false}},
      {EdgeSpec{/*i_fixed=*/100.0, 0.0, 0.0, 0.0, 0, 0, 0, 0}});
  const Evaluator eval(chain, 8, kTestNodeMemory);
  const MapResult result = DpMapper().Map(eval, 8);
  EXPECT_EQ(result.mapping.num_modules(), 2);
}

TEST(DpMapperTest, DisallowClusteringForcesSingletons) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 10, kTestNodeMemory);
  MapperOptions options;
  options.allow_clustering = false;
  const MapResult result = DpMapper(options).Map(eval, 10);
  EXPECT_EQ(result.mapping.num_modules(), 3);
}

TEST(DpMapperTest, ProcPredicateRestrictsInstanceSizes) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);
  MapperOptions options;
  options.proc_feasible =
      testing::TableOf(12, [](int p) { return p % 2 == 0; });
  const MapResult result = DpMapper(options).Map(eval, 12);
  for (const ModuleAssignment& m : result.mapping.modules) {
    EXPECT_EQ(m.procs_per_instance % 2, 0);
  }
}

TEST(DpMapperTest, InfeasibleWhenMemoryMinimaExceedMachine) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 5}, TaskSpec{0, 1, 0, 5}}, {EdgeSpec{}});
  const Evaluator eval(chain, 8, kTestNodeMemory);
  EXPECT_THROW(DpMapper().Map(eval, 8), Infeasible);
}

TEST(DpMapperTest, MergedModuleCanSatisfyMemoryWhereSplitCannot) {
  // Individually tasks need 5+5=10 > 8 processors, but the DP may not merge
  // them into one module of min 10 either — still infeasible. With smaller
  // minima 3+3=6 <= 8 it must succeed.
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 3}, TaskSpec{0, 1, 0, 3}}, {EdgeSpec{}});
  const Evaluator eval(chain, 8, kTestNodeMemory);
  EXPECT_NO_THROW(DpMapper().Map(eval, 8));
}

TEST(DpMapperTest, ResourceLimitGuard) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 16, kTestNodeMemory);
  MapperOptions options;
  options.max_table_bytes = 1024;  // absurdly small
  EXPECT_THROW(DpMapper(options).Map(eval, 16), ResourceLimit);
}

TEST(DpMapperTest, ThroughputMatchesEvaluatorOnReturnedMapping) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);
  const MapResult result = DpMapper().Map(eval, 12);
  EXPECT_NEAR(result.throughput, eval.Throughput(result.mapping), 1e-12);
}

TEST(DpMapperTest, MoreProcessorsNeverHurt) {
  const TaskChain chain = testing::SmallChain();
  double prev = 0.0;
  for (int p = 4; p <= 16; p += 2) {
    const Evaluator eval(chain, p, kTestNodeMemory);
    const MapResult result = DpMapper().Map(eval, p);
    EXPECT_GE(result.throughput, prev - 1e-12) << "P=" << p;
    prev = result.throughput;
  }
}

// The central correctness property: the dynamic program matches exhaustive
// search over clustering x budgets x (policy-derived) replication on random
// chains small enough to enumerate, under every comparison feasibility
// table. Every instance has a mapping under the table that admits every
// count; a restricted table may leave none, and then both must say so.
struct DpVsBruteCase {
  int seed;
  int num_tasks;
  int procs;
  ReplicationPolicy policy;
};

class DpVsBruteForce : public ::testing::TestWithParam<DpVsBruteCase> {};

TEST_P(DpVsBruteForce, DpIsOptimal) {
  const DpVsBruteCase& c = GetParam();
  workloads::SyntheticSpec spec;
  spec.num_tasks = c.num_tasks;
  spec.machine_procs = c.procs;
  spec.comm_comp_ratio = 0.5;
  spec.memory_tightness = 0.3;
  spec.replicable_fraction = 0.7;
  const Workload w = workloads::MakeSynthetic(spec, c.seed);
  const Evaluator eval(w.chain, c.procs, w.machine.node_memory_bytes);

  const std::vector<FeasibleProcs> tables =
      testing::ComparisonTables(c.procs);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    SCOPED_TRACE("table " + std::to_string(t));
    MapperOptions options;
    options.replication = c.policy;
    options.proc_feasible = tables[t];
    BruteForceOptions bf_options;
    bf_options.base = options;

    MapResult bf;
    try {
      bf = BruteForceMapper(bf_options).Map(eval, c.procs);
    } catch (const Infeasible&) {
      if (t == 0) throw;
      EXPECT_THROW(DpMapper(options).Map(eval, c.procs), Infeasible);
      continue;
    }
    const MapResult dp = DpMapper(options).Map(eval, c.procs);
    EXPECT_NEAR(dp.throughput, bf.throughput, 1e-9 * bf.throughput)
        << "dp: " << dp.mapping.ToString(w.chain)
        << "\nbf: " << bf.mapping.ToString(w.chain);
    for (const ModuleAssignment& m : dp.mapping.modules) {
      EXPECT_TRUE(tables[t].Admits(m.procs_per_instance));
    }
  }
}

std::vector<DpVsBruteCase> DpVsBruteCases() {
  std::vector<DpVsBruteCase> cases;
  int seed = 1;
  for (int k : {1, 2, 3, 4}) {
    for (int procs : {4, 7, 10}) {
      for (ReplicationPolicy policy :
           {ReplicationPolicy::kNone, ReplicationPolicy::kMaximal,
            ReplicationPolicy::kSearch}) {
        cases.push_back({seed++, k, procs, policy});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomChains, DpVsBruteForce,
                         ::testing::ValuesIn(DpVsBruteCases()));

// Assignment-only variant (paper Section 3.1): clustering disabled.
class DpAssignVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(DpAssignVsBrute, MatchesBruteForceWithoutClustering) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 3;
  spec.machine_procs = 9;
  spec.comm_comp_ratio = 0.8;
  spec.memory_tightness = 0.2;
  const Workload w = workloads::MakeSynthetic(spec, 100 + GetParam());
  const Evaluator eval(w.chain, 9, w.machine.node_memory_bytes);

  MapperOptions options;
  options.allow_clustering = false;
  options.replication = ReplicationPolicy::kNone;
  BruteForceOptions bf_options;
  bf_options.base = options;

  const MapResult dp = DpMapper(options).Map(eval, 9);
  const MapResult bf = BruteForceMapper(bf_options).Map(eval, 9);
  EXPECT_NEAR(dp.throughput, bf.throughput, 1e-9 * bf.throughput);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpAssignVsBrute, ::testing::Range(0, 15));

}  // namespace
}  // namespace pipemap
