// The incremental re-solve contract (MapperOptions::incremental): a warm
// re-solve that reuses a captured DP sweep's clean prefix is byte-identical
// to a cold solve of the same perturbed chain — mapping, throughput, and
// objective — and its provenance reports exactly which suffix was re-swept.
// Randomized over synthetic chains and perturbation sites; also checks that
// a prefix-dirty perturbation falls back to a full re-sweep, that the
// combination with multi-threaded sweeps stays deterministic, and that
// repeated re-solves do not grow the captured tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/dp_mapper.h"
#include "core/dp_sweep_state.h"
#include "core/evaluator.h"
#include "core/warm_start.h"
#include "costmodel/cost_function.h"
#include "workloads/synthetic.h"

namespace pipemap {
namespace {

constexpr int kNumChains = 12;

workloads::SyntheticSpec SpecFor(int seed) {
  workloads::SyntheticSpec spec;
  spec.num_tasks = 5 + seed % 4;             // 5..8 tasks
  spec.machine_procs = 16 + (seed % 3) * 4;  // 16, 20, 24 processors
  spec.comm_comp_ratio = 0.2 + 0.1 * (seed % 4);
  spec.replicable_fraction = (seed % 2 == 0) ? 1.0 : 0.7;
  spec.memory_tightness = 0.1 + 0.05 * (seed % 3);
  return spec;
}

/// The chain with edge `edge`'s communication costs scaled by `factor`.
/// Leaves every task cost and memory spec untouched, so only stages ending
/// at or after task edge+1 see different DP inputs.
TaskChain ScaleEdge(const TaskChain& chain, int edge, double factor) {
  ChainCostModel costs = chain.costs();
  std::shared_ptr<ScalarCost> icom(costs.IComFn(edge).Clone());
  std::shared_ptr<PairCost> ecom(costs.EComFn(edge).Clone());
  costs.SetEdge(
      edge,
      std::make_unique<CallbackScalarCost>(
          [icom, factor](int p) { return icom->Eval(p) * factor; }),
      std::make_unique<CallbackPairCost>([ecom, factor](int s, int r) {
        return ecom->Eval(s, r) * factor;
      }));
  return chain.WithCosts(std::move(costs));
}

/// The chain with task `task`'s execution cost scaled by `factor`.
TaskChain ScaleExec(const TaskChain& chain, int task, double factor) {
  ChainCostModel costs;
  for (int t = 0; t < chain.size(); ++t) {
    if (t == task) {
      std::shared_ptr<ScalarCost> exec(chain.costs().ExecFn(t).Clone());
      costs.AddTask(std::make_unique<CallbackScalarCost>(
                        [exec, factor](int p) { return exec->Eval(p) * factor; }),
                    chain.costs().Memory(t));
    } else {
      costs.AddTask(chain.costs().ExecFn(t).Clone(), chain.costs().Memory(t));
    }
  }
  for (int e = 0; e + 1 < chain.size(); ++e) {
    costs.SetEdge(e, chain.costs().IComFn(e).Clone(),
                  chain.costs().EComFn(e).Clone());
  }
  return chain.WithCosts(std::move(costs));
}

MapResult SolveCold(const TaskChain& chain, int procs,
                    std::size_t node_memory, int num_threads = 1) {
  const Evaluator eval(chain, procs, node_memory);
  MapperOptions options;
  options.num_threads = num_threads;
  return DpMapper(options).Map(eval, procs);
}

TEST(DpIncrementalTest, SuffixPerturbationMatchesColdAndReusesPrefix) {
  for (int seed = 0; seed < kNumChains; ++seed) {
    const workloads::SyntheticSpec spec = SpecFor(seed);
    const Workload w = workloads::MakeSynthetic(spec, 41000 + seed);
    const int procs = spec.machine_procs;
    const int k = w.chain.size();

    MapperOptions options;
    options.num_threads = 1;
    options.incremental = true;
    options.warm = std::make_shared<WarmStartState>();
    const DpMapper warm_mapper(options);
    {
      const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes);
      warm_mapper.Map(eval, procs);  // capture pass
    }

    // Perturb a randomized edge in the back half of the chain.
    const int edge = k - 2 - (seed % std::max(1, (k - 1) / 2));
    const double factor = 1.0 + 0.03 * (1 + seed % 5);
    const TaskChain perturbed = ScaleEdge(w.chain, edge, factor);
    const Evaluator peval(perturbed, procs, w.machine.node_memory_bytes);

    const MapResult cold =
        SolveCold(perturbed, procs, w.machine.node_memory_bytes);
    const MapResult warm = warm_mapper.Map(peval, procs);

    EXPECT_EQ(warm.mapping.ToString(perturbed), cold.mapping.ToString(perturbed))
        << "seed " << seed << " edge " << edge;
    EXPECT_EQ(warm.throughput, cold.throughput) << "seed " << seed;
    EXPECT_TRUE(warm.used_sweep_prefix) << "seed " << seed;
    // Only the edge's downstream stages are dirty: the re-sweep starts at
    // stage edge+1 (clamped to the always-re-swept terminal stage).
    EXPECT_EQ(warm.resweep_from, std::min(edge + 1, k - 1))
        << "seed " << seed;
  }
}

TEST(DpIncrementalTest, PrefixPerturbationFallsBackToFullResweep) {
  const workloads::SyntheticSpec spec = SpecFor(3);
  const Workload w = workloads::MakeSynthetic(spec, 42000);
  const int procs = spec.machine_procs;

  MapperOptions options;
  options.num_threads = 1;
  options.incremental = true;
  options.warm = std::make_shared<WarmStartState>();
  const DpMapper warm_mapper(options);
  {
    const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes);
    warm_mapper.Map(eval, procs);
  }

  // Task 0's cost feeds every stage: nothing of the captured sweep is
  // reusable and the provenance must say so.
  const TaskChain perturbed = ScaleExec(w.chain, 0, 1.1);
  const Evaluator peval(perturbed, procs, w.machine.node_memory_bytes);
  const MapResult cold =
      SolveCold(perturbed, procs, w.machine.node_memory_bytes);
  const MapResult warm = warm_mapper.Map(peval, procs);

  EXPECT_EQ(warm.mapping.ToString(perturbed), cold.mapping.ToString(perturbed));
  EXPECT_EQ(warm.throughput, cold.throughput);
  EXPECT_FALSE(warm.used_sweep_prefix);
  EXPECT_EQ(warm.resweep_from, -1);
}

TEST(DpIncrementalTest, UnchangedResolveReusesEverythingButTerminalStage) {
  const workloads::SyntheticSpec spec = SpecFor(1);
  const Workload w = workloads::MakeSynthetic(spec, 43000);
  const int procs = spec.machine_procs;
  const int k = w.chain.size();
  const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes);

  MapperOptions options;
  options.num_threads = 1;
  options.incremental = true;
  options.warm = std::make_shared<WarmStartState>();
  const DpMapper warm_mapper(options);
  const MapResult first = warm_mapper.Map(eval, procs);
  const MapResult again = warm_mapper.Map(eval, procs);

  EXPECT_EQ(again.mapping.ToString(w.chain), first.mapping.ToString(w.chain));
  EXPECT_EQ(again.throughput, first.throughput);
  EXPECT_TRUE(again.used_sweep_prefix);
  EXPECT_EQ(again.resweep_from, k - 1);
  EXPECT_EQ(options.warm->prefix_reused, 1u);
}

TEST(DpIncrementalTest, IncrementalMatchesColdAcrossThreadCounts) {
  for (int seed = 0; seed < 4; ++seed) {
    const workloads::SyntheticSpec spec = SpecFor(seed);
    const Workload w = workloads::MakeSynthetic(spec, 44000 + seed);
    const int procs = spec.machine_procs;
    const int k = w.chain.size();

    MapperOptions options;
    options.num_threads = 4;
    options.incremental = true;
    options.warm = std::make_shared<WarmStartState>();
    const DpMapper warm_mapper(options);
    {
      const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes);
      warm_mapper.Map(eval, procs);
    }

    const TaskChain perturbed = ScaleEdge(w.chain, k - 2, 1.07);
    const Evaluator peval(perturbed, procs, w.machine.node_memory_bytes);
    const MapResult cold = SolveCold(perturbed, procs,
                                     w.machine.node_memory_bytes,
                                     /*num_threads=*/1);
    const MapResult warm = warm_mapper.Map(peval, procs);

    EXPECT_EQ(warm.mapping.ToString(perturbed),
              cold.mapping.ToString(perturbed))
        << "seed " << seed;
    EXPECT_EQ(warm.throughput, cold.throughput) << "seed " << seed;
    EXPECT_TRUE(warm.used_sweep_prefix) << "seed " << seed;
  }
}

TEST(DpIncrementalTest, RepeatedResolvesKeepTheCapturedTablesBounded) {
  // Each re-solve re-lays out the rebuilt stages; their old pools must be
  // released, not stacked on top of the new ones.
  workloads::SyntheticSpec spec = SpecFor(2);
  spec.machine_procs = 40;
  const Workload w = workloads::MakeSynthetic(spec, 45000);
  const int procs = spec.machine_procs;
  const int k = w.chain.size();

  MapperOptions options;
  options.num_threads = 1;
  options.incremental = true;
  options.warm = std::make_shared<WarmStartState>();
  const DpMapper warm_mapper(options);
  {
    const Evaluator eval(w.chain, procs, w.machine.node_memory_bytes);
    warm_mapper.Map(eval, procs);
  }
  ASSERT_NE(options.warm->sweep, nullptr);
  const std::size_t first_bytes = options.warm->sweep->allocated_bytes;
  EXPECT_GT(first_bytes, 0u);

  for (int i = 1; i <= 20; ++i) {
    const TaskChain perturbed = ScaleEdge(w.chain, k - 2, 1.0 + 0.02 * i);
    const Evaluator peval(perturbed, procs, w.machine.node_memory_bytes);
    const MapResult warm = warm_mapper.Map(peval, procs);
    const MapResult cold =
        SolveCold(perturbed, procs, w.machine.node_memory_bytes);
    EXPECT_EQ(warm.mapping.ToString(perturbed),
              cold.mapping.ToString(perturbed))
        << "re-solve " << i;
    EXPECT_EQ(warm.throughput, cold.throughput) << "re-solve " << i;
    EXPECT_TRUE(warm.used_sweep_prefix) << "re-solve " << i;
    ASSERT_NE(options.warm->sweep, nullptr);
    EXPECT_LE(options.warm->sweep->allocated_bytes, first_bytes)
        << "re-solve " << i;
  }
}

}  // namespace
}  // namespace pipemap
