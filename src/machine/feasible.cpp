#include "machine/feasible.h"

#include <algorithm>
#include <queue>
#include <set>

#include "machine/rect.h"
#include "support/error.h"

namespace pipemap {

FeasibilityChecker::FeasibilityChecker(MachineConfig machine)
    : machine_(std::move(machine)) {}

FeasibleProcs FeasibilityChecker::ProcCountPredicate(int max_count) const {
  return FeasibleProcs(
      FeasibleProcCounts(machine_.grid_rows, machine_.grid_cols, max_count));
}

FeasibilityReport FeasibilityChecker::Check(const Mapping& mapping) const {
  FeasibilityReport report;
  for (const ModuleAssignment& m : mapping.modules) {
    if (!IsRectFeasible(m.procs_per_instance, machine_.grid_rows,
                        machine_.grid_cols)) {
      report.reason = "instance processor count " +
                      std::to_string(m.procs_per_instance) +
                      " is not a feasible rectangle";
      return report;
    }
  }
  report.packing =
      PackInstances(mapping, machine_.grid_rows, machine_.grid_cols);
  if (!report.packing.success) {
    report.reason = report.packing.hit_node_cap
                        ? "packing search gave up (node cap)"
                        : "instances do not pack onto the grid";
    return report;
  }
  if (machine_.comm_mode == CommMode::kSystolic) {
    report.pathways =
        CheckPathways(mapping, report.packing.placements, machine_.grid_rows,
                      machine_.grid_cols, machine_.pathways_per_link);
    if (!report.pathways.ok) {
      report.reason = "pathway capacity exceeded (max link load " +
                      std::to_string(report.pathways.max_link_load) + " > " +
                      std::to_string(report.pathways.capacity) + ")";
      return report;
    }
  }
  report.feasible = true;
  return report;
}

Mapping FeasibilityChecker::MakeFeasible(const Mapping& mapping,
                                         const Evaluator& eval) const {
  if (Check(mapping).feasible) return mapping;

  // Best-first search over replica reductions: each step removes one
  // instance from one module of some candidate mapping, preferring
  // candidates with the highest predicted throughput.
  struct Candidate {
    double throughput;
    Mapping mapping;
    bool operator<(const Candidate& other) const {
      return throughput < other.throughput;  // max-heap
    }
  };
  std::priority_queue<Candidate> queue;
  std::set<std::vector<int>> seen;
  auto key_of = [](const Mapping& m) {
    std::vector<int> key;
    key.reserve(m.modules.size());
    for (const ModuleAssignment& mod : m.modules) key.push_back(mod.replicas);
    return key;
  };
  queue.push(Candidate{eval.Throughput(mapping), mapping});
  seen.insert(key_of(mapping));

  constexpr int kMaxExpansions = 4096;
  int expansions = 0;
  while (!queue.empty() && expansions < kMaxExpansions) {
    const Candidate top = queue.top();
    queue.pop();
    // The first pop is `mapping` itself, found infeasible above.
    if (expansions++ > 0 && Check(top.mapping).feasible) return top.mapping;
    for (std::size_t i = 0; i < top.mapping.modules.size(); ++i) {
      if (top.mapping.modules[i].replicas <= 1) continue;
      Mapping reduced = top.mapping;
      reduced.modules[i].replicas -= 1;
      auto key = key_of(reduced);
      if (!seen.insert(std::move(key)).second) continue;
      queue.push(Candidate{eval.Throughput(reduced), std::move(reduced)});
    }
  }
  throw Infeasible(
      "FeasibilityChecker::MakeFeasible: no feasible variant found");
}

}  // namespace pipemap
