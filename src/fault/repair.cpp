#include "fault/repair.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "core/evaluator.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/tracer.h"

namespace pipemap {

namespace {

using Clock = std::chrono::steady_clock;

// Remap retry schedule: a timed-out attempt retries with twice the
// previous deadline, up to kRemapAttempts attempts in all.
constexpr int kRemapAttempts = 3;
constexpr double kDeadlineGrowth = 2.0;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

const char* ToString(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::kFullRemap:
      return "full";
    case RepairPolicy::kDropReplica:
      return "drop-replica";
    case RepairPolicy::kThroughputFloor:
      return "floor";
  }
  return "unknown";
}

RepairPolicy RepairPolicyFromName(const std::string& name) {
  if (name == "full") return RepairPolicy::kFullRemap;
  if (name == "drop-replica") return RepairPolicy::kDropReplica;
  if (name == "floor") return RepairPolicy::kThroughputFloor;
  throw InvalidArgument(
      "unknown repair policy '" + name +
      "' (want full, drop-replica, or floor)");
}

void ApplyCrashToRequest(RepairRequest& request, const FaultPlan& plan) {
  const FaultEvent* crash = plan.FirstCrash();
  if (crash == nullptr) {
    throw InvalidArgument("ApplyCrashToRequest: plan has no crash event");
  }
  if (crash->module < 0 ||
      crash->module >= request.failed_mapping.num_modules()) {
    throw InvalidArgument(
        "ApplyCrashToRequest: crash targets module " +
        std::to_string(crash->module) + " but the mapping has " +
        std::to_string(request.failed_mapping.num_modules()) + " modules");
  }
  request.failed_module = crash->module;
  const ModuleAssignment& m =
      request.failed_mapping.modules[static_cast<std::size_t>(crash->module)];
  // Count every crash event on the module (distinct instances); -1 kills
  // them all, which no repair can route around.
  if (crash->instance < 0) {
    request.failed_instances = m.replicas;
    return;
  }
  int failed = 0;
  for (int inst = 0; inst < m.replicas; ++inst) {
    const double late = std::numeric_limits<double>::infinity();
    if (plan.CrashedAt(crash->module, inst, late)) ++failed;
  }
  request.failed_instances = failed;
}

RepairEngine::RepairEngine(MappingEngine* engine)
    : engine_(engine != nullptr ? engine : &MappingEngine::Shared()) {}

RepairOutcome RepairEngine::Repair(const RepairRequest& request) const {
  PIPEMAP_CHECK(request.chain != nullptr, "Repair: request.chain is null");
  const TaskChain& chain = *request.chain;
  const Mapping& failed = request.failed_mapping;
  if (!failed.IsValidFor(chain.size())) {
    throw InvalidArgument("Repair: failed_mapping is not a valid mapping of "
                          "the chain");
  }
  if (request.failed_module < 0 ||
      request.failed_module >= failed.num_modules()) {
    throw InvalidArgument("Repair: failed_module " +
                          std::to_string(request.failed_module) +
                          " out of range");
  }
  const ModuleAssignment& victim =
      failed.modules[static_cast<std::size_t>(request.failed_module)];
  if (request.failed_instances < 1 ||
      request.failed_instances > victim.replicas) {
    throw InvalidArgument(
        "Repair: failed_instances " +
        std::to_string(request.failed_instances) + " outside [1, " +
        std::to_string(victim.replicas) + "]");
  }

  const int lost_procs = request.failed_instances * victim.procs_per_instance;
  const int surviving = request.machine.total_procs() - lost_procs;
  if (surviving < 1) {
    throw Infeasible("Repair: no surviving processors");
  }

  PIPEMAP_TRACE_SPAN("repair.run", "fault",
                     static_cast<std::int64_t>(request.policy));
  const Clock::time_point start = Clock::now();

  const Evaluator eval(chain, request.machine.total_procs(),
                       request.machine.node_memory_bytes,
                       request.options.num_threads);
  RepairOutcome outcome;
  outcome.pre_fault_throughput = eval.Throughput(failed);

  // Drop-replica candidate: the failed mapping minus the lost instances.
  // Its processor usage is the failed mapping's minus exactly the lost
  // processors, so it always fits the surviving count when the original
  // fit the machine.
  Mapping shrunk;
  bool shrunk_valid = false;
  if (victim.replicas - request.failed_instances >= 1) {
    shrunk = failed;
    shrunk.modules[static_cast<std::size_t>(request.failed_module)].replicas -=
        request.failed_instances;
    shrunk_valid = shrunk.TotalProcs() <= surviving;
  }
  const double degraded_throughput =
      shrunk_valid ? eval.Throughput(shrunk) : 0.0;
  const double degraded_retention =
      outcome.pre_fault_throughput > 0.0
          ? degraded_throughput / outcome.pre_fault_throughput
          : 0.0;

  const bool accept_degraded =
      shrunk_valid &&
      (request.policy == RepairPolicy::kDropReplica ||
       (request.policy == RepairPolicy::kThroughputFloor &&
        degraded_retention >= request.throughput_floor_fraction));

  if (accept_degraded) {
    outcome.mapping = std::move(shrunk);
    outcome.post_fault_throughput = degraded_throughput;
    outcome.degraded = true;
  } else {
    // Full remap on the survivors.
    MapRequest mr;
    mr.chain = &chain;
    mr.machine = request.machine;
    mr.total_procs = surviving;
    mr.objective = MapObjective::kThroughput;
    mr.solver = SolverPolicy::kAuto;
    mr.options = request.options;
    mr.use_cache = request.use_cache;

    MapResponse response;
    for (int attempt = 0; attempt < kRemapAttempts; ++attempt) {
      // A non-binding deadline (0/inf — see RepairRequest) stays
      // non-binding: growing it would just produce another unlimited
      // attempt, and 0 * growth must not turn into a binding microbudget.
      mr.time_budget_s =
          Deadline::HasBudget(request.solver_deadline_s)
              ? request.solver_deadline_s *
                    std::pow(kDeadlineGrowth, static_cast<double>(attempt))
              : 0.0;
      response = engine_->Map(mr);
      ++outcome.attempts;
      PIPEMAP_COUNTER_ADD("repair.attempts", 1);
      if (!response.timed_out) break;
    }
    outcome.mapping = std::move(response.mapping);
    outcome.post_fault_throughput = response.throughput;
    outcome.timed_out = response.timed_out;
    outcome.solver = response.solver;
    PIPEMAP_COUNTER_ADD("repair.remaps", 1);
  }

  ValidateMapping(outcome.mapping, chain, surviving);
  outcome.throughput_retention =
      outcome.pre_fault_throughput > 0.0
          ? outcome.post_fault_throughput / outcome.pre_fault_throughput
          : 0.0;
  outcome.repair_seconds = Seconds(start);

  PIPEMAP_HISTOGRAM_RECORD("repair.recovery_latency_s",
                           outcome.repair_seconds);
  PIPEMAP_GAUGE_SET("repair.pre_fault_throughput",
                    outcome.pre_fault_throughput);
  PIPEMAP_GAUGE_SET("repair.post_fault_throughput",
                    outcome.post_fault_throughput);

  if (request.policy == RepairPolicy::kThroughputFloor &&
      outcome.throughput_retention < request.throughput_floor_fraction) {
    throw Infeasible(
        "Repair: best repair retains " +
        std::to_string(outcome.throughput_retention) +
        " of pre-fault throughput, below the floor " +
        std::to_string(request.throughput_floor_fraction));
  }
  return outcome;
}

}  // namespace pipemap
