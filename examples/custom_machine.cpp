// Mapping onto a user-defined machine. The algorithms are model-agnostic:
// everything machine-specific enters through (a) the cost functions and
// (b) the feasibility table. This example builds a 4x12 grid with slow
// per-message software, defines a five-stage vision pipeline with
// callback-based (non-polynomial) ground-truth costs, and contrasts the
// unconstrained optimum with the machine-feasible one.
#include <cstdio>

#include "core/dp_mapper.h"
#include "core/evaluator.h"
#include "core/greedy_mapper.h"
#include "machine/feasible.h"
#include "sim/pipeline_sim.h"
#include "workloads/comm_kernels.h"

using namespace pipemap;

int main() {
  // A wide, shallow grid: 4 rows x 12 columns, 48 processors. Instance
  // heights are capped at 4, so e.g. 25 processors (5x5) is infeasible
  // even though 24 (4x6 or 2x12) is fine.
  MachineConfig machine;
  machine.name = "wide48";
  machine.grid_rows = 4;
  machine.grid_cols = 12;
  machine.node_memory_bytes = 2.0 * (1 << 20);
  machine.node_flops = 50e6;
  machine.msg_overhead_s = 150e-6;  // slow message software
  machine.node_bandwidth = 80e6;

  // Five-stage pipeline: acquire -> demosaic -> denoise -> segment ->
  // encode, on 1920x1080x2-byte frames.
  const double frame = 1920.0 * 1080 * 2;
  ChainCostModel costs;
  costs.AddTask(BlockExecCost(machine, 4e6, 1080, 1e-4),
                MemorySpec{64 << 10, 2 * frame});
  costs.AddTask(BlockExecCost(machine, 30e6, 1080, 1e-4),
                MemorySpec{64 << 10, 3 * frame});
  costs.AddTask(BlockExecCost(machine, 55e6, 1080, 1e-4),
                MemorySpec{64 << 10, 4 * frame});
  costs.AddTask(TreeReduceExecCost(machine, 40e6, 1080, 256 << 10, 1e-4),
                MemorySpec{64 << 10, 3 * frame});
  costs.AddTask(BlockExecCost(machine, 12e6, 1080, 1e-4),
                MemorySpec{64 << 10, 1.5 * frame});
  costs.SetEdge(0, NoRedistICost(machine), RemapECost(machine, frame));
  costs.SetEdge(1, NoRedistICost(machine), RemapECost(machine, 3 * frame));
  costs.SetEdge(2, RemapICost(machine, 3 * frame),
                RemapECost(machine, 3 * frame));
  costs.SetEdge(3, NoRedistICost(machine), RemapECost(machine, frame));

  TaskChain chain({Task{"acquire", false}, Task{"demosaic", true},
                   Task{"denoise", true}, Task{"segment", true},
                   Task{"encode", true}},
                  std::move(costs));

  const int P = machine.total_procs();
  const Evaluator eval(chain, P, machine.node_memory_bytes);
  std::printf("== custom machine: %s (%dx%d, %d procs) ==\n\n",
              machine.name.c_str(), machine.grid_rows, machine.grid_cols, P);
  for (int t = 0; t < chain.size(); ++t) {
    std::printf("  %-9s min procs %d, exec(1)=%.1f ms, exec(12)=%.1f ms\n",
                chain.task(t).name.c_str(), eval.MinProcs(t, t),
                1000 * eval.Exec(t, 1), 1000 * eval.Exec(t, 12));
  }

  // Unconstrained vs machine-feasible optimum.
  const MapResult unconstrained = DpMapper().Map(eval, P);
  const FeasibilityChecker checker(machine);
  MapperOptions options;
  options.proc_feasible = checker.ProcCountPredicate();
  const MapResult rect = DpMapper(options).Map(eval, P);
  const Mapping feasible = checker.MakeFeasible(rect.mapping, eval);

  std::printf("\nUnconstrained optimum: %s\n",
              unconstrained.mapping.ToString(chain).c_str());
  std::printf("  predicted %.2f frames/s\n", unconstrained.throughput);
  std::printf("Feasible optimum:      %s\n",
              feasible.ToString(chain).c_str());
  std::printf("  predicted %.2f frames/s (%.1f%% of unconstrained)\n",
              eval.Throughput(feasible),
              100.0 * eval.Throughput(feasible) / unconstrained.throughput);

  const FeasibilityReport report = checker.Check(feasible);
  std::printf("  placement: %zu instances packed (%llu search nodes)\n",
              report.packing.placements.size(),
              static_cast<unsigned long long>(report.packing.nodes));

  // Sanity-check with the simulator.
  PipelineSimulator sim(chain);
  SimOptions soptions;
  soptions.num_datasets = 300;
  soptions.warmup = 100;
  std::printf("  simulated %.2f frames/s\n",
              sim.Run(feasible, soptions).throughput);
  return 0;
}
