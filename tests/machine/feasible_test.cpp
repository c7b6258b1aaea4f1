#include "machine/feasible.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/dp_mapper.h"
#include "machine/rect.h"
#include "support/error.h"
#include "support/metrics.h"
#include "../test_util.h"

namespace pipemap {
namespace {

using testing::kTestNodeMemory;

MachineConfig SmallGrid(CommMode mode = CommMode::kMessage) {
  MachineConfig m = MachineConfig::IWarp64(mode);
  m.node_memory_bytes = kTestNodeMemory;
  return m;
}

TEST(FeasibilityCheckerTest, ProcCountPredicateMatchesRectangles) {
  const FeasibilityChecker checker(SmallGrid());
  const FeasibleProcs table = checker.ProcCountPredicate();
  EXPECT_TRUE(table.Admits(12));
  EXPECT_FALSE(table.Admits(13));
  EXPECT_TRUE(table.Admits(64));
  EXPECT_FALSE(table.Admits(11));

  // Every grid's table admits exactly its rectangles' areas, so a 2x5
  // and a 5x2 grid have equal tables.
  const std::pair<int, int> grids[] = {{1, 16}, {2, 5}, {5, 2}, {3, 7}};
  for (const auto& [rows, cols] : grids) {
    MachineConfig machine = SmallGrid();
    machine.grid_rows = rows;
    machine.grid_cols = cols;
    const FeasibleProcs grid = FeasibilityChecker(machine).ProcCountPredicate();
    for (int p = 1; p <= rows * cols + 8; ++p) {
      EXPECT_EQ(grid.Admits(p), IsRectFeasible(p, rows, cols))
          << rows << "x" << cols << " p=" << p;
    }
    if (rows * cols == 10) {
      EXPECT_EQ(grid, FeasibleProcs({1, 2, 3, 4, 5, 6, 8, 10}));
    }
  }
}

TEST(FeasibilityCheckerTest, AcceptsPackableMapping) {
  const FeasibilityChecker checker(SmallGrid());
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 8, 3});
  m.modules.push_back(ModuleAssignment{1, 2, 10, 4});
  const FeasibilityReport report = checker.Check(m);
  EXPECT_TRUE(report.feasible) << report.reason;
  EXPECT_TRUE(report.packing.success);
}

TEST(FeasibilityCheckerTest, RejectsNonRectangularInstanceCount) {
  const FeasibilityChecker checker(SmallGrid());
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 1, 13});
  const FeasibilityReport report = checker.Check(m);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.reason.find("13"), std::string::npos);
}

TEST(FeasibilityCheckerTest, RejectsOversubscribedGrid) {
  const FeasibilityChecker checker(SmallGrid());
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 9, 8});  // 72 > 64
  EXPECT_FALSE(checker.Check(m).feasible);
}

TEST(FeasibilityCheckerTest, SystolicModeChecksPathways) {
  const FeasibilityChecker checker(SmallGrid(CommMode::kSystolic));
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 0, 8, 3});
  m.modules.push_back(ModuleAssignment{1, 2, 10, 4});
  const FeasibilityReport report = checker.Check(m);
  if (report.feasible) {
    EXPECT_GT(report.pathways.pathways, 0);
    EXPECT_LE(report.pathways.max_link_load,
              checker.machine().pathways_per_link);
  } else {
    EXPECT_NE(report.reason.find("pathway"), std::string::npos);
  }
}

TEST(MakeFeasibleTest, ReturnsMappingUnchangedWhenAlreadyFeasible) {
  const MachineConfig machine = SmallGrid();
  const FeasibilityChecker checker(machine);
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 64, machine.node_memory_bytes);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 2, 1, 8});
  EXPECT_EQ(checker.MakeFeasible(m, eval), m);
}

TEST(MakeFeasibleTest, ReducesReplicationUntilPackable) {
  const MachineConfig machine = SmallGrid();
  const FeasibilityChecker checker(machine);
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 64, machine.node_memory_bytes);
  // 24 instances of 3 processors = 72 > 64: must shed instances.
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 1, 24, 3});
  m.modules.push_back(ModuleAssignment{2, 2, 1, 1});
  const Mapping fixed = checker.MakeFeasible(m, eval);
  EXPECT_TRUE(checker.Check(fixed).feasible);
  EXPECT_LT(fixed.modules[0].replicas, 24);
  // Structure is otherwise preserved.
  EXPECT_EQ(fixed.modules[0].procs_per_instance, 3);
  EXPECT_EQ(fixed.num_modules(), 2);
}

TEST(MakeFeasibleTest, SearchesTheRootMappingOnce) {
  const MachineConfig machine = SmallGrid();
  const FeasibilityChecker checker(machine);
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 64, machine.node_memory_bytes);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 1, 24, 3});
  m.modules.push_back(ModuleAssignment{2, 2, 1, 1});
  const ScopedMetricsEnable metrics(true);
  const MetricsRegistry::Counter* searches =
      MetricsRegistry::Global().GetCounter("machine.pack_searches");
  const std::uint64_t before = searches->Total();
  const Mapping fixed = checker.MakeFeasible(m, eval);
  // Module 1 has one replica, so each popped candidate has one child: the
  // search pops 24, 23, ... down to the answer and packs each once.
  EXPECT_EQ(searches->Total() - before,
            static_cast<std::uint64_t>(24 - fixed.modules[0].replicas + 1));
}

TEST(MakeFeasibleTest, ThrowsWhenNoVariantIsFeasible) {
  const MachineConfig machine = SmallGrid();
  const FeasibilityChecker checker(machine);
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 64, machine.node_memory_bytes);
  Mapping m;
  m.modules.push_back(ModuleAssignment{0, 2, 1, 13});  // 13 never packs
  EXPECT_THROW(checker.MakeFeasible(m, eval), Infeasible);
}

TEST(FeasibilityIntegrationTest, DpWithPredicateProducesFeasibleCounts) {
  const MachineConfig machine = SmallGrid();
  const FeasibilityChecker checker(machine);
  const TaskChain chain = testing::SmallChain();
  const Evaluator eval(chain, 64, machine.node_memory_bytes);
  MapperOptions options;
  options.proc_feasible = checker.ProcCountPredicate();
  const MapResult result = DpMapper(options).Map(eval, 64);
  for (const ModuleAssignment& m : result.mapping.modules) {
    EXPECT_TRUE(checker.ProcCountPredicate().Admits(m.procs_per_instance));
  }
}

}  // namespace
}  // namespace pipemap
