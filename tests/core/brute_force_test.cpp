#include "core/brute_force.h"

#include <gtest/gtest.h>

#include "support/error.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::BuildChain;
using testing::EdgeSpec;
using testing::kTestNodeMemory;
using testing::TaskSpec;

TEST(BruteForceTest, SingleTaskPicksBestProcessorCount) {
  // f(p) = 4/p + p has its integer minimum at p = 2 (f = 4).
  const TaskChain chain = BuildChain({TaskSpec{0.0, 4.0, 1.0, 1, false}}, {});
  const Evaluator eval(chain, 6, kTestNodeMemory);
  const MapResult result = BruteForceMapper().Map(eval, 6);
  EXPECT_EQ(result.mapping.modules[0].procs_per_instance, 2);
  EXPECT_NEAR(result.throughput, 0.25, 1e-12);
}

TEST(BruteForceTest, TwoTasksHandComputedOptimum) {
  // Both tasks pure 1/p work of size 1, free communication, 4 processors,
  // no replication: best split is (2, 2) -> bottleneck 0.5.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, false}, TaskSpec{0.0, 1.0, 0.0, 1, false}},
      {EdgeSpec{}});
  const Evaluator eval(chain, 4, kTestNodeMemory);
  BruteForceOptions options;
  options.base.allow_clustering = false;
  const MapResult result = BruteForceMapper(options).Map(eval, 4);
  EXPECT_NEAR(result.throughput, 2.0, 1e-12);
}

TEST(BruteForceTest, ClusteringEnumerationFindsMergedOptimum) {
  // Huge external edge cost forces the merged clustering.
  const TaskChain chain = BuildChain(
      {TaskSpec{0.0, 1.0, 0.0, 1, false}, TaskSpec{0.0, 1.0, 0.0, 1, false}},
      {EdgeSpec{0.0, 0.0, 0.0, 1000.0, 0, 0, 0, 0}});
  const Evaluator eval(chain, 4, kTestNodeMemory);
  const MapResult result = BruteForceMapper().Map(eval, 4);
  EXPECT_EQ(result.mapping.num_modules(), 1);
  // One module of 4 processors: body = 2/4.
  EXPECT_NEAR(result.throughput, 2.0, 1e-12);
}

TEST(BruteForceTest, RespectsProcPredicate) {
  const TaskChain chain = BuildChain({TaskSpec{0.0, 1.0, 0.0, 1, false}}, {});
  const Evaluator eval(chain, 7, kTestNodeMemory);
  BruteForceOptions options;
  options.base.proc_feasible =
      testing::TableOf(7, [](int p) { return p <= 3; });
  const MapResult result = BruteForceMapper(options).Map(eval, 7);
  EXPECT_LE(result.mapping.modules[0].procs_per_instance, 3);
}

TEST(BruteForceTest, EvaluationCapThrows) {
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 16, kTestNodeMemory);
  BruteForceOptions options;
  options.max_evaluations = 10;
  EXPECT_THROW(BruteForceMapper(options).Map(eval, 16), ResourceLimit);
}

TEST(BruteForceTest, InfeasibleThrows) {
  const TaskChain chain = BuildChain(
      {TaskSpec{0, 1, 0, 9}, TaskSpec{0, 1, 0, 9}}, {EdgeSpec{}});
  const Evaluator eval(chain, 4, kTestNodeMemory);
  EXPECT_THROW(BruteForceMapper().Map(eval, 4), Infeasible);
}

TEST(BruteForceTest, ReportsWorkCount) {
  const TaskChain chain = BuildChain({TaskSpec{0.0, 1.0, 0.0, 1, false}}, {});
  const Evaluator eval(chain, 5, kTestNodeMemory);
  const MapResult result = BruteForceMapper().Map(eval, 5);
  EXPECT_EQ(result.work, 5u);  // budgets 1..5
}

}  // namespace
}  // namespace pipemap
