// Degradation-aware remapping after processor faults.
//
// When a FaultPlan (fault/fault_plan.h) crashes instances out from under a
// running pipeline, the mapping that was optimal for the healthy machine
// is no longer even valid: it schedules work onto processors that no
// longer exist. The RepairEngine turns a (failed mapping, fault) pair into
// a repaired mapping on the survivors, with a policy knob trading repair
// latency against recovered throughput:
//
//   * kDropReplica — shrink the failed module by the lost instances and
//     keep everything else in place. Zero solver invocations, so recovery
//     latency is microseconds, but the shrunk module may become the new
//     bottleneck (degraded throughput).
//   * kFullRemap — re-run the MappingEngine portfolio on the surviving
//     processor count: one plain Map request, so the DP prunes against
//     greedy's incumbent like any other solve. Slowest but recovers the
//     most throughput; the engine's solution cache makes repeat repairs
//     fast (cold vs. warm is what bench_fault_recovery measures).
//   * kThroughputFloor — accept the drop-replica candidate when it retains
//     at least `throughput_floor_fraction` of the pre-fault throughput,
//     otherwise escalate to a full remap. Throws pipemap::Infeasible when
//     even the remap cannot reach the floor.
//
// Remap solves run under the cooperative deadline machinery
// (support/deadline.h): each attempt gets `solver_deadline_s`, doubled per
// retry, and a timed-out attempt retries at once, up to three attempts.
// The last attempt's incumbent is kept when every attempt times out —
// repair always returns a valid mapping on the survivors or throws.
#pragma once

#include <string>

#include "core/mapper.h"
#include "core/task.h"
#include "engine/mapping_engine.h"
#include "fault/fault_plan.h"
#include "machine/machine.h"

namespace pipemap {

enum class RepairPolicy {
  kFullRemap,
  kDropReplica,
  kThroughputFloor,
};

const char* ToString(RepairPolicy policy);

/// Parses "full" / "drop-replica" / "floor"; throws
/// pipemap::InvalidArgument on anything else.
RepairPolicy RepairPolicyFromName(const std::string& name);

struct RepairRequest {
  const TaskChain* chain = nullptr;
  MachineConfig machine;
  /// The mapping that was running when the fault hit.
  Mapping failed_mapping;
  /// Module whose instances crashed and how many of them.
  int failed_module = 0;
  int failed_instances = 1;
  RepairPolicy policy = RepairPolicy::kFullRemap;
  /// Minimum acceptable post/pre throughput ratio for kThroughputFloor.
  double throughput_floor_fraction = 0.5;
  /// Per-attempt solver deadline for remap solves. Binds only when
  /// positive and finite (Deadline::HasBudget): 0, negative, and infinity
  /// all mean "no deadline", matching MapRequest::time_budget_s.
  double solver_deadline_s = 0.0;
  /// Solver options for remap solves (threads, replication policy, ...).
  MapperOptions options;
  /// Consult/populate the engine's solution cache for remap solves.
  bool use_cache = true;
};

/// Fills a request's (failed_module, failed_instances) from the plan's
/// first crash event: instance -1 crashes every instance of the module.
/// `event_module` indexes the failed mapping's modules. Throws
/// pipemap::InvalidArgument when the plan has no crash or targets a module
/// the mapping does not have.
void ApplyCrashToRequest(RepairRequest& request, const FaultPlan& plan);

struct RepairOutcome {
  /// Valid for the chain, uses at most the surviving processors.
  Mapping mapping;
  double pre_fault_throughput = 0.0;
  double post_fault_throughput = 0.0;
  /// post / pre.
  double throughput_retention = 0.0;
  /// Remap solver attempts consumed (0 when drop-replica sufficed).
  int attempts = 0;
  /// The drop-replica candidate was kept instead of a fresh solve.
  bool degraded = false;
  /// The kept remap attempt was interrupted by its deadline (best
  /// incumbent, not certified optimal).
  bool timed_out = false;
  /// Wall-clock recovery latency: drop-replica evaluation plus all remap
  /// attempts.
  double repair_seconds = 0.0;
  /// Solver chain of the kept remap ("" for drop-replica repairs).
  std::string solver;
};

class RepairEngine {
 public:
  /// Repairs through `engine` (shared solution cache across repairs);
  /// nullptr uses MappingEngine::Shared().
  explicit RepairEngine(MappingEngine* engine = nullptr);

  /// Throws pipemap::InvalidArgument on malformed requests (bad module
  /// index, more failed instances than replicas), pipemap::Infeasible when
  /// no valid repair exists or a kThroughputFloor repair misses the floor.
  RepairOutcome Repair(const RepairRequest& request) const;

 private:
  MappingEngine* engine_;
};

}  // namespace pipemap
