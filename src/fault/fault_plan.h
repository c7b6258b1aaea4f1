// Fault injection for the simulators.
//
// The paper maps chains onto a healthy machine; the ROADMAP's production
// north-star is a pipeline that keeps serving while processors crash, slow
// down, and links degrade. A FaultPlan describes such events at simulated
// times so every simulator can replay the same failure scenario
// deterministically, and the RepairEngine (fault/repair.h) can remap onto
// the survivors. Related work treats reliability as a first-class mapping
// criterion for exactly this workload class ("Optimizing Latency and
// Reliability of Pipeline Workflow Applications", PAPERS.md).
#pragma once

#include <limits>
#include <string>
#include <vector>

namespace pipemap {

enum class FaultKind {
  /// A module instance stops permanently at time_s. The pipeline
  /// simulator reroutes its data sets to surviving instances; work the
  /// instance started before the crash runs to completion (documented
  /// simplification — see DESIGN.md §7).
  kCrash,
  /// Compute on the targeted instance(s) runs `factor` times slower
  /// during [time_s, time_s + duration_s).
  kSlowdown,
  /// Transfers over a chain edge take `factor` times longer during
  /// [time_s, time_s + duration_s).
  kLinkDegrade,
};

const char* ToString(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// Simulated time the fault begins (seconds).
  double time_s = 0.0;
  /// Window length for slowdown/link events; crashes are permanent and
  /// ignore it.
  double duration_s = std::numeric_limits<double>::infinity();
  /// Target module index (crash, slowdown).
  int module = 0;
  /// Target instance within the module; -1 means every instance.
  int instance = -1;
  /// Target module boundary (link degradation): edge `e` is the transfer
  /// between modules e and e+1 of the mapping.
  int edge = 0;
  /// Time multiplier for slowdown/link events (> 1 is slower).
  double factor = 1.0;
};

/// An immutable schedule of fault events, sorted by time. Queries are
/// O(events) — plans are tiny (a handful of events) and the simulators
/// query per data-set step, not per cycle.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// True when instance `instance` of `module` has crashed at or before
  /// `t` (an event with instance -1 crashes every instance).
  bool CrashedAt(int module, int instance, double t) const;

  /// Product of the active slowdown factors for (module, instance) at `t`.
  double ComputeFactor(int module, int instance, double t) const;

  /// Product of the active degradation factors for module boundary `edge`
  /// at `t`.
  double TransferFactor(int edge, double t) const;

  int CountKind(FaultKind kind) const;

  /// First crash event in time order; nullptr when the plan has none.
  const FaultEvent* FirstCrash() const;

  /// Throws pipemap::InvalidArgument when any event is malformed: negative
  /// or non-finite times, factors <= 0, module/edge out of range for a
  /// chain with `num_modules` modules (pass <= 0 to skip the range check).
  void Validate(int num_modules) const;
};

/// What actually happened when a simulator applied a plan. Event counts
/// describe the plan; `reroutes` counts data sets the pipeline simulator
/// moved off a crashed instance.
struct FaultImpact {
  int crash_events = 0;
  int slowdown_events = 0;
  int link_events = 0;
  int reroutes = 0;
};

/// Canonical text form ("pipemap-faults v1"), round-trips exactly.
std::string SerializeFaultPlan(const FaultPlan& plan);
FaultPlan ParseFaultPlan(const std::string& text);

/// Compact inline grammar for the CLI --faults flag. Events are separated
/// by ';':
///   crash@T:mM[.iI]    crash module M (instance I, default all) at T
///   slow@T+D:mM[.iI]xF compute slowdown by factor F during [T, T+D)
///   link@T+D:eExF      edge-E transfer degradation by F during [T, T+D)
/// Example: "crash@2.0:m1.i0;slow@1.0+3.0:m2x2.5"
FaultPlan ParseFaultSpec(const std::string& spec);

/// Reads `arg` as a fault-plan file when one exists at that path,
/// otherwise parses it as an inline spec.
FaultPlan LoadFaultPlan(const std::string& arg);

}  // namespace pipemap
