// Cross-solve warm-start state for budget/floor sweeps.
//
// The mapping engines are routinely invoked many times over the same chain
// and machine while only one knob moves: the latency/throughput frontier
// sweeps the throughput floor, machine sizing binary-searches the
// processor budget, and the portfolio policy runs a heuristic before the
// exact solver. Those adjacent solves share two expensive artifacts:
//
//   * the per-module-range configuration tables the dynamic program
//     tabulates before its sweep (every (first, last) range × budget
//     configuration) — identical across solves whenever the chain,
//     replication rule, and feasibility table are unchanged;
//   * a feasible incumbent mapping, whose objective value seeds the DP's
//     dominance-pruning threshold so the optimistic bounds have something
//     tight to beat from the first stage onward.
//
// A WarmStartState bundles both. The DP's stage tables are not part of
// it: every solve sweeps from the first stage. Callers hang one off
// MapperOptions::warm; the solvers read what matches and refresh the state
// after each run. Warm starts are accelerators only — the dynamic
// program's pruning is bound-safe, so a warm-started solve returns exactly
// the mapping and objective a cold solve would (a property the tests pin).
// The state is not synchronized; concurrent solves must not share one
// instance without external locking.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/mapping.h"

namespace pipemap {

namespace detail {
struct DpRangeTables;
}  // namespace detail

struct WarmStartState {
  /// Most recent solution under this state's problem family. The DP
  /// re-evaluates it under the current constraints (budget, floor) and
  /// uses the value as a pruning bound when it remains feasible.
  std::optional<Mapping> incumbent;

  /// Reusable DP range tables (see dp_engine.h), most recently used
  /// first. A small pool rather than a single slot: frontier sweeps
  /// alternate between the latency-body and policy configuration rules at
  /// every floor, and a single slot would thrash where the pool keeps the
  /// floor-independent policy tables alive across the whole sweep. The DP
  /// scans for a usable entry and inserts a fresh one (evicting the
  /// least recently used beyond kMaxWarmTables) when none matches.
  std::vector<std::shared_ptr<detail::DpRangeTables>> tables;

  /// Reuse statistics, for provenance and tests.
  std::uint64_t tables_reused = 0;
  std::uint64_t tables_built = 0;
  std::uint64_t incumbents_seeded = 0;
};

}  // namespace pipemap
