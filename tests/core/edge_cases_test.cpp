// Edge cases and guard rails across the core library: encoding limits,
// untabulated evaluators, degenerate chains, and option corners.
#include <gtest/gtest.h>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/greedy_mapper.h"
#include "support/error.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

TEST(EdgeCaseTest, LargeMachineSkipsTabulationButBehavesIdentically) {
  // Above the tabulation threshold (512) the evaluator answers from the
  // cost model directly; results must match a tabulated twin.
  const TaskChain chain = testing::SmallChain();
  const Evaluator big(chain, 600, kTestNodeMemory);
  const Evaluator small(chain, 400, kTestNodeMemory);
  for (int p : {1, 3, 50, 399}) {
    EXPECT_DOUBLE_EQ(big.Exec(1, p), small.Exec(1, p));
    EXPECT_DOUBLE_EQ(big.Body(0, 2, p), small.Body(0, 2, p));
    EXPECT_DOUBLE_EQ(big.ECom(0, p, p + 1), small.ECom(0, p, p + 1));
  }
  // And the mappers still work against it.
  GreedyOptions options;
  const MapResult r = GreedyMapper(options).Map(big, 600);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(EdgeCaseTest, DpRejectsOversizedEncodings) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 4, kTestNodeMemory);
  EXPECT_THROW(DpMapper().Map(eval, 10000), InvalidArgument);
  EXPECT_THROW(DpMapper().Map(eval, 0), InvalidArgument);
}

TEST(EdgeCaseTest, SingleProcessorMachine) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0.5, 0.5, 0.0, 1}, TaskSpec{0.25, 0.25, 0.0, 1}},
      {EdgeSpec{0.1, 0, 0, 1.0, 0, 0, 0, 0}});
  const Evaluator eval(chain, 1, kTestNodeMemory);
  // Everything must land in one module on the single processor.
  const MapResult dp = DpMapper().Map(eval, 1);
  EXPECT_EQ(dp.mapping.num_modules(), 1);
  EXPECT_EQ(dp.mapping.TotalProcs(), 1);
  // Response: both bodies + icom = 1 + 0.5 + 0.1.
  EXPECT_NEAR(dp.throughput, 1.0 / 1.6, 1e-12);
  const MapResult greedy = GreedyMapper().Map(eval, 1);
  EXPECT_NEAR(greedy.throughput, dp.throughput, 1e-12);
}

TEST(EdgeCaseTest, LongChainOnSmallMachine) {
  // k close to P: every module is tiny; the mappers must still cover the
  // chain (possibly by merging).
  workloads::SyntheticSpec spec;
  spec.num_tasks = 6;
  spec.machine_procs = 6;
  spec.memory_tightness = 0.0;
  const Workload w = workloads::MakeSynthetic(spec, 321);
  const Evaluator eval(w.chain, 6, w.machine.node_memory_bytes);
  const MapResult dp = DpMapper().Map(eval, 6);
  EXPECT_TRUE(dp.mapping.IsValidFor(6));
  const MapResult greedy = GreedyMapper().Map(eval, 6);
  EXPECT_LE(greedy.throughput, dp.throughput * (1 + 1e-9));
  EXPECT_GE(greedy.throughput, 0.6 * dp.throughput);
}

TEST(EdgeCaseTest, AllTasksNonReplicable) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 3;
  spec.machine_procs = 12;
  spec.replicable_fraction = 0.0;
  const Workload w = workloads::MakeSynthetic(spec, 77);
  const Evaluator eval(w.chain, 12, w.machine.node_memory_bytes);
  const MapResult dp = DpMapper().Map(eval, 12);
  for (const ModuleAssignment& m : dp.mapping.modules) {
    EXPECT_EQ(m.replicas, 1);
  }
}

TEST(EdgeCaseTest, GreedyBacktrackingComboCapReducesRadius) {
  GreedyOptions options;
  options.limited_backtracking = true;
  options.max_backtrack_combos = 3;  // forces radius reduction to zero
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 12, kTestNodeMemory);
  // Must not blow up; result equals plain greedy.
  GreedyOptions plain;
  EXPECT_NEAR(GreedyMapper(options).Map(eval, 12).throughput,
              GreedyMapper(plain).Map(eval, 12).throughput, 1e-12);
}

TEST(EdgeCaseTest, ZeroCostEdgeChainMatchesNoCommBaseline) {
  // With genuinely free communication, the comm-aware DP and the
  // comm-blind allocator agree (the Choudhary case).
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 2.0, 0.0, 1, false}, TaskSpec{0.0, 1.0, 0.0, 1, false}},
      {EdgeSpec{}});
  const Evaluator eval(chain, 9, kTestNodeMemory);
  MapperOptions options;
  options.allow_clustering = false;
  options.replication = ReplicationPolicy::kNone;
  const MapResult dp = DpMapper(options).Map(eval, 9);
  // Balanced split: 2/p0 = 1/p1 -> (6, 3).
  EXPECT_NEAR(dp.throughput, 3.0, 1e-12);
}

TEST(EdgeCaseTest, MappingToStringHandlesManyModules) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 6;
  spec.machine_procs = 12;
  spec.memory_tightness = 0.0;
  const Workload w = workloads::MakeSynthetic(spec, 55);
  Mapping m;
  for (int t = 0; t < 6; ++t) {
    m.modules.push_back(ModuleAssignment{t, t, 1, 2});
  }
  const std::string s = m.ToString(w.chain);
  EXPECT_NE(s.find("t0"), std::string::npos);
  EXPECT_NE(s.find("t5"), std::string::npos);
  EXPECT_NE(s.find("(12 procs)"), std::string::npos);
}

TEST(EdgeCaseTest, EvaluatorHandlesZeroCostEdgeChains) {
  // All-zero communication must not divide by zero anywhere.
  const TaskChain chain = BuildChain(
      {TaskSpec{1.0, 0.0, 0.0, 1}, TaskSpec{1.0, 0.0, 0.0, 1}},
      {EdgeSpec{}});
  const Evaluator eval(chain, 4, kTestNodeMemory);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 2});
  m.modules.push_back(ModuleAssignment{1, 1, 1, 2});
  EXPECT_NEAR(eval.Throughput(m), 1.0, 1e-12);
  EXPECT_NEAR(eval.Latency(m), 2.0, 1e-12);
}

}  // namespace
}  // namespace pipemap
