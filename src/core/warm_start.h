// Cross-solve warm-start state: an incumbent mapping.
//
// The mapping engines are routinely invoked several times over the same
// chain while only one knob moves: the latency/throughput frontier sweeps
// the throughput floor, machine sizing binary-searches the processor
// budget, and the portfolio policy runs a heuristic before the exact
// solver. What carries from one solve to the next is a feasible incumbent
// mapping, whose objective value seeds the DP's dominance-pruning
// threshold so the optimistic bounds have something tight to beat from
// the first stage onward.
//
// Nothing else carries: every DP solve tabulates its own range tables
// from its own Evaluator and constraints, so no solve can read tables
// built for another problem. The incumbent itself is safe to carry
// anywhere — the DP re-evaluates its clustering and budget split under
// the current problem's tables and drops it when it does not fit. Warm
// starts are accelerators only — the dynamic program's pruning is
// bound-safe, so a warm-started solve returns exactly the mapping and
// objective a cold solve would (a property the tests pin).
//
// Callers hang one off MapperOptions::warm; the DP writes its answer back
// into it after each run. The state is not synchronized; concurrent
// solves must not share one instance without external locking.
#pragma once

#include <optional>

#include "core/mapping.h"

namespace pipemap {

struct WarmStartState {
  /// Most recent solution under this state. The DP re-evaluates it under
  /// the current constraints (budget, floor, memory minima) and uses the
  /// value as a pruning bound when it remains feasible.
  std::optional<Mapping> incumbent;
};

}  // namespace pipemap
