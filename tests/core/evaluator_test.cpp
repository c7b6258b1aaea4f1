#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/mapper.h"
#include "support/error.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

Evaluator MakeEval(const TaskChain& chain, int procs = 16) {
  return Evaluator(chain, procs, kTestNodeMemory);
}

TEST(EvaluatorTest, TabulatedLookupsMatchDirectCostModel) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain, 16);
  for (int p = 1; p <= 16; ++p) {
    for (int t = 0; t < 3; ++t) {
      EXPECT_DOUBLE_EQ(eval.Exec(t, p), chain.costs().Exec(t, p));
    }
    for (int e = 0; e < 2; ++e) {
      EXPECT_DOUBLE_EQ(eval.ICom(e, p), chain.costs().ICom(e, p));
      for (int q = 1; q <= 16; q += 3) {
        EXPECT_DOUBLE_EQ(eval.ECom(e, p, q), chain.costs().ECom(e, p, q));
      }
    }
  }
}

TEST(EvaluatorTest, LookupsBeyondTableFallBackToDirect) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain, 4);
  EXPECT_DOUBLE_EQ(eval.Exec(0, 100), chain.costs().Exec(0, 100));
  EXPECT_DOUBLE_EQ(eval.ECom(0, 100, 2), chain.costs().ECom(0, 100, 2));
}

TEST(EvaluatorTest, BodyMatchesModuleBodyForAllRanges) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain, 8);
  for (int first = 0; first < 3; ++first) {
    for (int last = first; last < 3; ++last) {
      for (int p = 1; p <= 8; ++p) {
        EXPECT_NEAR(eval.Body(first, last, p),
                    chain.costs().ModuleBody(first, last, p), 1e-12)
            << "range [" << first << "," << last << "] p=" << p;
      }
    }
  }
}

TEST(EvaluatorTest, MinProcsFromMemoryModel) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 1}, TaskSpec{0, 1, 0, 3}, TaskSpec{0, 1, 0, 2}},
      {EdgeSpec{}, EdgeSpec{}});
  const Evaluator eval = MakeEval(chain);
  EXPECT_EQ(eval.MinProcs(0, 0), 1);
  EXPECT_EQ(eval.MinProcs(1, 1), 3);
  EXPECT_EQ(eval.MinProcs(2, 2), 2);
  // Merged ranges need at least the sum of the distributed parts.
  EXPECT_EQ(eval.MinProcs(1, 2), 4);  // (2.5 + 1.5) * mem / mem
  EXPECT_EQ(eval.MinProcs(0, 2), 4);
  EXPECT_GE(eval.MinProcs(0, 1), eval.MinProcs(0, 0));
}

TEST(EvaluatorTest, MinProcsInfeasibleSentinel) {
  ChainCostModel costs;
  costs.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0),
                MemorySpec{2.0 * kTestNodeMemory, 0.0});
  const TaskChain chain({Task{"fat"}}, std::move(costs));
  const Evaluator eval = MakeEval(chain);
  EXPECT_EQ(eval.MinProcs(0, 0), kInfeasibleProcs);
}

TEST(EvaluatorTest, ConfigureModuleNonePolicy) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain);
  const ModuleConfig cfg =
      ConfigureConstrained(eval, 0, 0, 7, ReplicationPolicy::kNone, {});
  EXPECT_TRUE(cfg.valid);
  EXPECT_EQ(cfg.replicas, 1);
  EXPECT_EQ(cfg.procs, 7);
}

TEST(EvaluatorTest, ConfigureModuleMaximalReplication) {
  const TaskChain chain = BuildChain({TaskSpec{0, 1, 0, 3}}, {});
  const Evaluator eval = MakeEval(chain);
  const ModuleConfig cfg = ConfigureConstrained(
      eval, 0, 0, 11, ReplicationPolicy::kMaximal, {});
  EXPECT_TRUE(cfg.valid);
  EXPECT_EQ(cfg.replicas, 3);  // floor(11 / 3)
  EXPECT_EQ(cfg.procs, 3);     // floor(11 / 3)
}

TEST(EvaluatorTest, ConfigureModuleBelowMinimumIsInvalid) {
  const TaskChain chain = BuildChain({TaskSpec{0, 1, 0, 3}}, {});
  const Evaluator eval = MakeEval(chain);
  EXPECT_FALSE(
      ConfigureConstrained(eval, 0, 0, 2, ReplicationPolicy::kMaximal, {})
          .valid);
}

TEST(EvaluatorTest, ConfigureModuleNonReplicableIgnoresPolicy) {
  const TaskChain chain =
      BuildChain({TaskSpec{0, 1, 0, 1, false}}, {});
  const Evaluator eval = MakeEval(chain);
  const ModuleConfig cfg =
      ConfigureConstrained(eval, 0, 0, 8, ReplicationPolicy::kMaximal, {});
  EXPECT_EQ(cfg.replicas, 1);
  EXPECT_EQ(cfg.procs, 8);
}

TEST(EvaluatorTest, ConfigureModuleSearchPicksBestEffectiveBody) {
  // Perfectly parallel work: body(p)/r = work/(p*r) is the same for every
  // split of the budget, but a fixed term makes replication strictly
  // better: body(p)/r = (fixed + work/p)/r.
  const TaskChain chain = BuildChain({TaskSpec{1.0, 10.0, 0.0, 1}}, {});
  const Evaluator eval = MakeEval(chain);
  const ModuleConfig cfg =
      ConfigureConstrained(eval, 0, 0, 8, ReplicationPolicy::kSearch, {});
  EXPECT_TRUE(cfg.valid);
  // (1 + 10/1)/8 = 1.375 beats (1 + 10/8)/1 = 2.25 and intermediates.
  EXPECT_EQ(cfg.replicas, 8);
  EXPECT_EQ(cfg.procs, 1);
}

TEST(EvaluatorTest, ConfigureModuleSearchAvoidsReplicationWhenOverheadHigh) {
  // Dominant fixed-overhead-free scaling with a strong per-processor
  // overhead term: big groups are bad, so search still replicates; but if
  // the cost is pure fixed time, every (r, p) has body/r = fixed/r and
  // maximal replication wins — verify search equals maximal there.
  const TaskChain chain = BuildChain({TaskSpec{1.0, 0.0, 0.0, 2}}, {});
  const Evaluator eval = MakeEval(chain);
  const ModuleConfig search =
      ConfigureConstrained(eval, 0, 0, 9, ReplicationPolicy::kSearch, {});
  const ModuleConfig maximal =
      ConfigureConstrained(eval, 0, 0, 9, ReplicationPolicy::kMaximal, {});
  EXPECT_EQ(search.replicas, maximal.replicas);
  EXPECT_EQ(search.procs, maximal.procs);
}

TEST(FeasibleProcsTest, AtMostIsTheLargestAdmittedCountBelow) {
  const FeasibleProcs table({6, 3, 10});
  EXPECT_EQ(table.AtMost(0), 0);
  EXPECT_EQ(table.AtMost(-5), 0);
  EXPECT_EQ(table.AtMost(2), 0);  // below the first admitted count
  EXPECT_EQ(table.AtMost(3), 3);
  EXPECT_EQ(table.AtMost(5), 3);  // between two counts
  EXPECT_EQ(table.AtMost(6), 6);
  EXPECT_EQ(table.AtMost(9), 6);
  EXPECT_EQ(table.AtMost(10), 10);
  EXPECT_EQ(table.AtMost(1000), 10);  // above the last
  EXPECT_FALSE(table.Admits(0));
  EXPECT_FALSE(table.Admits(5));
  EXPECT_TRUE(table.Admits(6));
  EXPECT_FALSE(table.Admits(11));

  const FeasibleProcs none{std::vector<int>{}};
  EXPECT_EQ(none.AtMost(7), 0);
  EXPECT_FALSE(none.Admits(1));
}

TEST(FeasibleProcsTest, DefaultAdmitsEveryCount) {
  const FeasibleProcs all;
  EXPECT_FALSE(all.Admits(0));
  EXPECT_EQ(all.AtMost(0), 0);
  for (int p = 1; p <= 4096; ++p) {
    ASSERT_TRUE(all.Admits(p)) << p;
    ASSERT_EQ(all.AtMost(p), p);
  }
  EXPECT_EQ(all.AtMost(std::numeric_limits<int>::max()),
            std::numeric_limits<int>::max());
}

TEST(FeasibleProcsTest, EqualityDependsOnlyOnTheAdmittedCounts) {
  EXPECT_EQ(FeasibleProcs({1, 2, 4}), FeasibleProcs({4, 2, 1, 2}));
  EXPECT_NE(FeasibleProcs({1, 2, 4}), FeasibleProcs({1, 2, 5}));
  EXPECT_NE(FeasibleProcs({1, 2, 4}), FeasibleProcs({1, 2, 4, 8}));
  EXPECT_NE(FeasibleProcs({1, 2, 4}), FeasibleProcs());
  EXPECT_EQ(FeasibleProcs{std::vector<int>{}},
            FeasibleProcs{std::vector<int>{}});
  EXPECT_NE(FeasibleProcs{std::vector<int>{}}, FeasibleProcs());
  EXPECT_EQ(FeasibleProcs(), FeasibleProcs());
}

TEST(EvaluatorTest, InstanceResponseComposesCommAndBody) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain);
  const double body = eval.Body(1, 1, 4);
  const double in = eval.ECom(0, 2, 4);
  const double out = eval.ECom(1, 4, 3);
  EXPECT_DOUBLE_EQ(eval.InstanceResponse(1, 1, 4, 2, 3), in + body + out);
  EXPECT_DOUBLE_EQ(eval.InstanceResponse(1, 1, 4, 0, 3), body + out);
  EXPECT_DOUBLE_EQ(eval.InstanceResponse(1, 1, 4, 2, 0), in + body);
  EXPECT_DOUBLE_EQ(eval.InstanceResponse(1, 1, 4, 0, 0), body);
}

TEST(EvaluatorTest, ThroughputIsInverseBottleneck) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 4});
  m.modules.push_back(ModuleAssignment{1, 2, 1, 8});
  const double r0 = eval.EffectiveResponse(m, 0);
  const double r1 = eval.EffectiveResponse(m, 1);
  EXPECT_DOUBLE_EQ(eval.BottleneckResponse(m), std::max(r0, r1));
  EXPECT_DOUBLE_EQ(eval.Throughput(m), 1.0 / std::max(r0, r1));
}

TEST(EvaluatorTest, EffectiveResponseDividesByReplicas) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain);
  Mapping once;
  once.modules.push_back(ModuleAssignment{0, 2, 1, 4});
  Mapping twice;
  twice.modules.push_back(ModuleAssignment{0, 2, 2, 4});
  EXPECT_DOUBLE_EQ(eval.EffectiveResponse(twice, 0),
                   eval.EffectiveResponse(once, 0) / 2.0);
}

TEST(EvaluatorTest, LatencyCountsEachBoundaryOnce) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 4});
  m.modules.push_back(ModuleAssignment{1, 2, 1, 8});
  const double expected =
      eval.Body(0, 0, 4) + eval.ECom(0, 4, 8) + eval.Body(1, 2, 8);
  EXPECT_DOUBLE_EQ(eval.Latency(m), expected);
}

TEST(EvaluatorTest, ReplicationIncreasesLatencyNotThroughput) {
  // A replicated mapping has per-instance latency at fewer processors
  // (slower per data set) but higher throughput — Figure 3's trade-off.
  const TaskChain chain = BuildChain({TaskSpec{0.1, 10.0, 0.0, 1}}, {});
  const Evaluator eval = MakeEval(chain);
  Mapping wide;
  wide.modules.push_back(ModuleAssignment{0, 0, 1, 8});
  Mapping replicated;
  replicated.modules.push_back(ModuleAssignment{0, 0, 4, 2});
  EXPECT_GT(eval.Latency(replicated), eval.Latency(wide));
  EXPECT_GT(eval.Throughput(replicated), eval.Throughput(wide));
}

TEST(EvaluatorTest, InvalidArgumentsThrow) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval = MakeEval(chain);
  EXPECT_THROW(eval.Exec(5, 1), InvalidArgument);
  EXPECT_THROW(eval.Exec(0, 0), InvalidArgument);
  EXPECT_THROW(eval.ICom(2, 1), InvalidArgument);
  EXPECT_THROW(eval.Body(2, 1, 1), InvalidArgument);
  Mapping bad;
  EXPECT_THROW(eval.BottleneckResponse(bad), InvalidArgument);
  EXPECT_THROW(Evaluator(chain, 0, kTestNodeMemory), InvalidArgument);
  EXPECT_THROW(Evaluator(chain, 4, 0.0), InvalidArgument);
}

}  // namespace
}  // namespace pipemap
