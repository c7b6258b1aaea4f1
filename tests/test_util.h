// Shared helpers for pipemap tests: compact builders for small chains with
// polynomial costs and explicit memory minima.
#pragma once

#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/mapper.h"
#include "core/task.h"
#include "costmodel/poly.h"

namespace pipemap::testing {

/// Description of one task for BuildChain.
struct TaskSpec {
  // Execution polynomial: fixed + parallel/p + overhead*p.
  double fixed = 0.0;
  double parallel = 1.0;
  double overhead = 0.0;
  // Memory-imposed minimum processor count (realized via the memory model
  // with 1.0 node-memory units of headroom per processor).
  int min_procs = 1;
  bool replicable = true;
};

/// Description of one edge for BuildChain.
struct EdgeSpec {
  // Internal redistribution polynomial.
  double i_fixed = 0.0;
  double i_parallel = 0.0;
  double i_overhead = 0.0;
  // External communication polynomial.
  double e_fixed = 0.0;
  double e_par_send = 0.0;
  double e_par_recv = 0.0;
  double e_over_send = 0.0;
  double e_over_recv = 0.0;
};

/// The feasibility table admitting exactly the counts in 1..max_procs
/// that `admits` accepts.
template <typename Pred>
FeasibleProcs TableOf(int max_procs, Pred admits) {
  std::vector<int> counts;
  for (int p = 1; p <= max_procs; ++p) {
    if (admits(p)) counts.push_back(p);
  }
  return FeasibleProcs(counts);
}

/// The feasibility tables the brute-force comparisons sweep on a
/// `max_procs`-processor machine: every count, odd counts, the rectangles
/// of a 2x5 grid, and powers of two.
inline std::vector<FeasibleProcs> ComparisonTables(int max_procs) {
  return {FeasibleProcs(),
          TableOf(max_procs, [](int p) { return p % 2 == 1; }),
          TableOf(max_procs,
                  [](int p) { return p <= 5 || (p % 2 == 0 && p <= 10); }),
          TableOf(max_procs, [](int p) { return (p & (p - 1)) == 0; })};
}

/// Node memory used by chains built with BuildChain (arbitrary unit).
inline constexpr double kTestNodeMemory = 100.0;

/// Builds a chain of tasks with polynomial costs. edges.size() must be
/// tasks.size() - 1.
inline TaskChain BuildChain(const std::vector<TaskSpec>& tasks,
                            const std::vector<EdgeSpec>& edges) {
  ChainCostModel costs;
  std::vector<Task> task_list;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const TaskSpec& s = tasks[t];
    // MinProcessors(ceil(dist / headroom)): headroom is kTestNodeMemory -
    // fixed(0); choose dist = (min_procs - 0.5) * kTestNodeMemory.
    const double dist =
        s.min_procs <= 1 ? 0.0 : (s.min_procs - 0.5) * kTestNodeMemory;
    costs.AddTask(
        std::make_unique<PolyScalarCost>(s.fixed, s.parallel, s.overhead),
        MemorySpec{0.0, dist});
    task_list.push_back(Task{"t" + std::to_string(t), s.replicable});
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const EdgeSpec& s = edges[e];
    costs.SetEdge(
        static_cast<int>(e),
        std::make_unique<PolyScalarCost>(s.i_fixed, s.i_parallel,
                                         s.i_overhead),
        std::make_unique<PolyPairCost>(s.e_fixed, s.e_par_send, s.e_par_recv,
                                       s.e_over_send, s.e_over_recv));
  }
  return TaskChain(std::move(task_list), std::move(costs));
}

/// A convenient 3-task chain with communication, used across tests.
inline TaskChain SmallChain() {
  return BuildChain(
      {TaskSpec{0.01, 1.0, 0.001, 1, true},
       TaskSpec{0.02, 2.0, 0.002, 2, true},
       TaskSpec{0.005, 0.5, 0.0005, 1, true}},
      {EdgeSpec{0.001, 0.05, 0.0005, 0.002, 0.03, 0.03, 0.0004, 0.0004},
       EdgeSpec{0.002, 0.08, 0.0002, 0.004, 0.05, 0.05, 0.0002, 0.0002}});
}

}  // namespace pipemap::testing
