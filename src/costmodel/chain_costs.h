// Cost model for a whole task chain.
//
// Holds, for a chain of k tasks: the k execution-time functions, the k-1
// internal-redistribution functions (used when adjacent tasks share a
// processor group), the k-1 external-communication functions (used when
// they do not), and the k memory footprints. This is exactly the input the
// paper's Section 2 execution model requires, independent of whether the
// functions are fitted polynomials, tabulated profiles, or analytic ground
// truth.
#pragma once

#include <memory>
#include <vector>

#include "costmodel/cost_function.h"
#include "costmodel/memory.h"

namespace pipemap {

class ChainCostModel {
 public:
  ChainCostModel() = default;
  ChainCostModel(const ChainCostModel& other);
  ChainCostModel& operator=(const ChainCostModel& other);
  ChainCostModel(ChainCostModel&&) = default;
  ChainCostModel& operator=(ChainCostModel&&) = default;

  /// Appends a task with its execution cost and memory footprint; returns
  /// the task index. When the chain already has tasks, the edge from the
  /// previous task defaults to zero-cost and should be set with SetEdge.
  int AddTask(std::unique_ptr<ScalarCost> exec, MemorySpec memory);

  /// Sets the communication costs of edge `edge` (between task `edge` and
  /// task `edge+1`). Requires both tasks to exist.
  void SetEdge(int edge, std::unique_ptr<ScalarCost> icom,
               std::unique_ptr<PairCost> ecom);

  int num_tasks() const { return static_cast<int>(exec_.size()); }
  int num_edges() const { return num_tasks() > 0 ? num_tasks() - 1 : 0; }

  /// Execution time of task `task` on `procs` processors.
  double Exec(int task, int procs) const;

  /// Internal redistribution time of edge `edge` when both endpoints run on
  /// the same group of `procs` processors.
  double ICom(int edge, int procs) const;

  /// External communication time of edge `edge` between distinct groups.
  double ECom(int edge, int sender_procs, int receiver_procs) const;

  const MemorySpec& Memory(int task) const;

  /// Direct access to the underlying cost functions (e.g. for
  /// serialization, which dispatches on the concrete type).
  const ScalarCost& ExecFn(int task) const;
  const ScalarCost& IComFn(int edge) const;
  const PairCost& EComFn(int edge) const;

  /// Time of the module body formed by tasks [first, last] on one group of
  /// `procs` processors: the tasks' execution times plus the internal
  /// redistributions between consecutive member tasks. O(last-first) — the
  /// paper's O(1) composition assumption is met by the mappers, which
  /// precompute prefix sums over these values.
  double ModuleBody(int first, int last, int procs) const;

  /// Combined memory footprint of tasks [first, last].
  MemorySpec ModuleMemory(int first, int last) const;

 private:
  void CheckTask(int task) const;
  void CheckEdge(int edge) const;

  std::vector<std::unique_ptr<ScalarCost>> exec_;
  std::vector<std::unique_ptr<ScalarCost>> icom_;
  std::vector<std::unique_ptr<PairCost>> ecom_;
  std::vector<MemorySpec> memory_;
};

}  // namespace pipemap
