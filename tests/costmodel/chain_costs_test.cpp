#include "costmodel/chain_costs.h"

#include <gtest/gtest.h>

#include <memory>

#include "costmodel/poly.h"
#include "support/error.h"

namespace pipemap {
namespace {

ChainCostModel ThreeTaskModel() {
  ChainCostModel m;
  m.AddTask(std::make_unique<PolyScalarCost>(1.0, 10.0, 0.0),
            MemorySpec{0.0, 100.0});
  m.AddTask(std::make_unique<PolyScalarCost>(2.0, 20.0, 0.0),
            MemorySpec{0.0, 200.0});
  m.AddTask(std::make_unique<PolyScalarCost>(3.0, 30.0, 0.0),
            MemorySpec{10.0, 300.0});
  m.SetEdge(0, std::make_unique<PolyScalarCost>(0.5, 0.0, 0.0),
            std::make_unique<PolyPairCost>(1.0, 2.0, 3.0, 0.0, 0.0));
  m.SetEdge(1, std::make_unique<PolyScalarCost>(0.25, 0.0, 0.0),
            std::make_unique<PolyPairCost>(2.0, 0.0, 0.0, 0.1, 0.2));
  return m;
}

TEST(ChainCostModelTest, SizesTrackTasks) {
  const ChainCostModel m = ThreeTaskModel();
  EXPECT_EQ(m.num_tasks(), 3);
  EXPECT_EQ(m.num_edges(), 2);
}

TEST(ChainCostModelTest, EmptyModelHasNoEdges) {
  ChainCostModel m;
  EXPECT_EQ(m.num_tasks(), 0);
  EXPECT_EQ(m.num_edges(), 0);
}

TEST(ChainCostModelTest, ExecEvaluatesPerTask) {
  const ChainCostModel m = ThreeTaskModel();
  EXPECT_DOUBLE_EQ(m.Exec(0, 2), 6.0);
  EXPECT_DOUBLE_EQ(m.Exec(1, 4), 7.0);
  EXPECT_DOUBLE_EQ(m.Exec(2, 10), 6.0);
}

TEST(ChainCostModelTest, EdgeCostsEvaluate) {
  const ChainCostModel m = ThreeTaskModel();
  EXPECT_DOUBLE_EQ(m.ICom(0, 4), 0.5);
  EXPECT_DOUBLE_EQ(m.ECom(0, 2, 3), 1.0 + 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(m.ECom(1, 10, 5), 2.0 + 1.0 + 1.0);
}

TEST(ChainCostModelTest, UnsetEdgeDefaultsToZero) {
  ChainCostModel m;
  m.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0), {});
  m.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0), {});
  EXPECT_DOUBLE_EQ(m.ICom(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(m.ECom(0, 4, 4), 0.0);
}

TEST(ChainCostModelTest, ModuleBodySumsExecsAndInternalEdges) {
  const ChainCostModel m = ThreeTaskModel();
  // Tasks 0..2 at p = 2: execs 6 + 12 + 18; internal edges 0.5 + 0.25.
  EXPECT_DOUBLE_EQ(m.ModuleBody(0, 2, 2), 36.75);
  // Single task: no internal edge.
  EXPECT_DOUBLE_EQ(m.ModuleBody(1, 1, 2), 12.0);
  // Tasks 1..2: one internal edge.
  EXPECT_DOUBLE_EQ(m.ModuleBody(1, 2, 2), 12.0 + 18.0 + 0.25);
}

TEST(ChainCostModelTest, ModuleMemorySums) {
  const ChainCostModel m = ThreeTaskModel();
  const MemorySpec all = m.ModuleMemory(0, 2);
  EXPECT_DOUBLE_EQ(all.fixed_bytes, 10.0);
  EXPECT_DOUBLE_EQ(all.distributed_bytes, 600.0);
}

TEST(ChainCostModelTest, CopyIsDeep) {
  ChainCostModel original = ThreeTaskModel();
  ChainCostModel copy = original;
  // Mutate the original's edge; the copy must be unaffected.
  original.SetEdge(0, std::make_unique<PolyScalarCost>(99.0, 0.0, 0.0),
                   std::make_unique<PolyPairCost>(99.0, 0, 0, 0, 0));
  EXPECT_DOUBLE_EQ(copy.ICom(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(original.ICom(0, 1), 99.0);
}

TEST(ChainCostModelTest, SelfAssignmentIsSafe) {
  ChainCostModel m = ThreeTaskModel();
  m = *&m;
  EXPECT_EQ(m.num_tasks(), 3);
  EXPECT_DOUBLE_EQ(m.Exec(0, 1), 11.0);
}

TEST(ChainCostModelTest, IndexValidation) {
  const ChainCostModel m = ThreeTaskModel();
  EXPECT_THROW(m.Exec(3, 1), InvalidArgument);
  EXPECT_THROW(m.Exec(-1, 1), InvalidArgument);
  EXPECT_THROW(m.ICom(2, 1), InvalidArgument);
  EXPECT_THROW(m.ECom(-1, 1, 1), InvalidArgument);
  EXPECT_THROW(m.ModuleBody(2, 1, 1), InvalidArgument);
  EXPECT_THROW(m.Memory(5), InvalidArgument);
}

TEST(ChainCostModelTest, NullCostsRejected) {
  ChainCostModel m;
  EXPECT_THROW(m.AddTask(nullptr, {}), InvalidArgument);
  m.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0), {});
  m.AddTask(std::make_unique<PolyScalarCost>(1, 0, 0), {});
  EXPECT_THROW(m.SetEdge(0, nullptr, std::make_unique<ZeroPairCost>()),
               InvalidArgument);
}

}  // namespace
}  // namespace pipemap
