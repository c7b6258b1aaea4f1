// RepairEngine tests: the ISSUE's acceptance criterion — an injected
// processor crash yields a repaired mapping that uses only surviving
// processors — plus the three repair policies and the retry loop.
#include "fault/repair.h"

#include <gtest/gtest.h>

#include <string>

#include "core/evaluator.h"
#include "support/error.h"
#include "support/metrics.h"
#include "workloads/fft_hist.h"
#include "workloads/synthetic.h"
#include "../test_util.h"

namespace pipemap {
namespace {

struct Fixture {
  Workload workload = workloads::MakeFftHist(256, CommMode::kMessage);
  MappingEngine engine;

  Mapping MapHealthy() {
    MapRequest request;
    request.chain = &workload.chain;
    request.machine = workload.machine;
    request.solver = SolverPolicy::kAuto;
    return engine.Map(request).mapping;
  }

  RepairRequest BaseRequest(const Mapping& failed) {
    RepairRequest r;
    r.chain = &workload.chain;
    r.machine = workload.machine;
    r.failed_mapping = failed;
    return r;
  }
};

TEST(RepairEngineTest, FullRemapUsesOnlySurvivingProcessors) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kFullRemap;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);

  const int surviving =
      f.workload.machine.total_procs() - failed.modules[0].procs_per_instance;
  EXPECT_TRUE(outcome.mapping.IsValidFor(f.workload.chain.size()));
  EXPECT_LE(outcome.mapping.TotalProcs(), surviving);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_GE(outcome.attempts, 1);
  EXPECT_GT(outcome.post_fault_throughput, 0.0);
  EXPECT_GT(outcome.throughput_retention, 0.0);
  EXPECT_LE(outcome.throughput_retention, 1.0 + 1e-9);
  EXPECT_FALSE(outcome.solver.empty());
}

TEST(RepairEngineTest, DropReplicaShrinksTheFailedModuleOnly) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kDropReplica;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);

  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.attempts, 0);
  EXPECT_EQ(outcome.mapping.modules[0].replicas,
            failed.modules[0].replicas - 1);
  for (int m = 1; m < failed.num_modules(); ++m) {
    EXPECT_EQ(outcome.mapping.modules[m], failed.modules[m]);
  }
}

TEST(RepairEngineTest, DropReplicaOfLastInstanceFallsBackToRemap) {
  // Shrink to a mapping where the failed module has exactly one replica:
  // dropping it would empty the module, so the engine must re-solve.
  Fixture f;
  Mapping failed = f.MapHealthy();
  failed.modules[0].replicas = 1;

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kDropReplica;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_GE(outcome.attempts, 1);
  EXPECT_TRUE(outcome.mapping.IsValidFor(f.workload.chain.size()));
}

TEST(RepairEngineTest, ThroughputFloorEscalatesWhenDegradedMappingTooSlow) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  // A floor no drop-replica repair can reach (losing an instance of the
  // bottleneck module must cost some throughput) forces the full remap
  // path; the remap may still miss the (absurd) floor, which must be
  // reported as Infeasible rather than silently accepted.
  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kThroughputFloor;
  request.throughput_floor_fraction = 0.999;
  try {
    const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
    EXPECT_FALSE(outcome.degraded);
    EXPECT_GE(outcome.throughput_retention, 0.999);
  } catch (const Infeasible&) {
    // Acceptable: even the remap could not reach 99.9% retention.
  }
}

TEST(RepairEngineTest, ThroughputFloorAcceptsGoodDegradedMapping) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kThroughputFloor;
  request.throughput_floor_fraction = 0.1;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_GE(outcome.throughput_retention, 0.1);
}

TEST(RepairEngineTest, FullRemapDoesTheWorkOfAPlainSeededSolve) {
  // A full remap is one plain engine solve on the survivors, its DP
  // seeded by greedy's incumbent like any other kAuto request: same
  // mapping and the same DP cells as Map on that request.
  const ScopedMetricsEnable metrics(true);
  MetricsRegistry::Counter* cells =
      MetricsRegistry::Global().GetCounter("dp.cells_evaluated");
  workloads::SyntheticSpec spec;
  spec.num_tasks = 8;
  spec.machine_procs = 48;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload w = workloads::MakeSynthetic(spec, seed);
    MapRequest healthy;
    healthy.chain = &w.chain;
    healthy.machine = w.machine;
    healthy.options.num_threads = 1;
    const Mapping failed = MappingEngine().Map(healthy).mapping;
    int module = 0;
    while (module < failed.num_modules() &&
           failed.modules[static_cast<std::size_t>(module)].replicas < 2) {
      ++module;
    }
    if (module == failed.num_modules()) continue;
    const ModuleAssignment& victim =
        failed.modules[static_cast<std::size_t>(module)];

    RepairRequest request;
    request.chain = &w.chain;
    request.machine = w.machine;
    request.failed_mapping = failed;
    request.failed_module = module;
    request.failed_instances = 1;
    request.policy = RepairPolicy::kFullRemap;
    request.options.num_threads = 1;
    MappingEngine repair_engine;
    const std::uint64_t cells0 = cells->Total();
    const RepairOutcome outcome =
        RepairEngine(&repair_engine).Repair(request);
    const std::uint64_t repair_cells = cells->Total() - cells0;

    MapRequest survivors = healthy;
    survivors.total_procs =
        w.machine.total_procs() - victim.procs_per_instance;
    const std::uint64_t cells1 = cells->Total();
    const MapResponse reference = MappingEngine().Map(survivors);
    const std::uint64_t reference_cells = cells->Total() - cells1;

    EXPECT_EQ(outcome.mapping, reference.mapping);
    EXPECT_EQ(outcome.post_fault_throughput, reference.throughput);
    EXPECT_GT(reference_cells, 0u);
    EXPECT_EQ(repair_cells, reference_cells);
    ++checked;
  }
  EXPECT_GE(checked, 2);
}

TEST(RepairEngineTest, TimedOutRepairStillReturnsValidMapping) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.failed_module = 0;
  request.failed_instances = 1;
  request.policy = RepairPolicy::kFullRemap;
  request.use_cache = false;
  request.solver_deadline_s = 1e-9;  // 1, 2 and 4 ns: every attempt hopeless
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_TRUE(outcome.mapping.IsValidFor(f.workload.chain.size()));
  EXPECT_GT(outcome.post_fault_throughput, 0.0);
}

TEST(RepairEngineTest, RejectsMalformedRequests) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  RepairEngine repair(&f.engine);

  RepairRequest bad_module = f.BaseRequest(failed);
  bad_module.failed_module = failed.num_modules();
  EXPECT_THROW(repair.Repair(bad_module), InvalidArgument);

  RepairRequest bad_instances = f.BaseRequest(failed);
  bad_instances.failed_instances = failed.modules[0].replicas + 1;
  EXPECT_THROW(repair.Repair(bad_instances), InvalidArgument);

  RepairRequest no_chain = f.BaseRequest(failed);
  no_chain.chain = nullptr;
  EXPECT_THROW(repair.Repair(no_chain), Error);
}

TEST(RepairEngineTest, ApplyCrashToRequestReadsThePlan) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  ApplyCrashToRequest(request, ParseFaultSpec("crash@2.0:m0.i0"));
  EXPECT_EQ(request.failed_module, 0);
  EXPECT_EQ(request.failed_instances, 1);

  // Instance -1 kills every instance of the module.
  RepairRequest all = f.BaseRequest(failed);
  ApplyCrashToRequest(all, ParseFaultSpec("crash@2.0:m0"));
  EXPECT_EQ(all.failed_instances, failed.modules[0].replicas);

  RepairRequest none = f.BaseRequest(failed);
  EXPECT_THROW(ApplyCrashToRequest(none, ParseFaultSpec("slow@1+2:m0x2")),
               InvalidArgument);
}

TEST(RepairEngineTest, OutcomeCarriesTheRecoveryStory) {
  Fixture f;
  const Mapping failed = f.MapHealthy();
  ASSERT_GE(failed.modules[0].replicas, 2);

  RepairRequest request = f.BaseRequest(failed);
  request.policy = RepairPolicy::kDropReplica;
  const RepairOutcome outcome = RepairEngine(&f.engine).Repair(request);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.attempts, 0);
  EXPECT_EQ(outcome.solver, "");
  EXPECT_GT(outcome.pre_fault_throughput, 0.0);
  EXPECT_GT(outcome.post_fault_throughput, 0.0);
  EXPECT_EQ(outcome.throughput_retention,
            outcome.post_fault_throughput / outcome.pre_fault_throughput);
  EXPECT_GT(outcome.repair_seconds, 0.0);
}

TEST(RepairPolicyTest, NamesRoundTrip) {
  for (const RepairPolicy p :
       {RepairPolicy::kFullRemap, RepairPolicy::kDropReplica,
        RepairPolicy::kThroughputFloor}) {
    EXPECT_EQ(RepairPolicyFromName(ToString(p)), p);
  }
  EXPECT_THROW(RepairPolicyFromName("nonsense"), InvalidArgument);
}

}  // namespace
}  // namespace pipemap
