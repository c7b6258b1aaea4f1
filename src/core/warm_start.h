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
//     configuration, plus the derived minimum-budget and suffix bounds) —
//     identical across solves whenever the chain, replication rule, and
//     feasibility table are unchanged;
//   * a feasible incumbent mapping, whose objective value seeds the DP's
//     dominance-pruning threshold so the optimistic bounds have something
//     tight to beat from the first stage onward.
//
// A WarmStartState bundles both. Callers hang one off
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
#include <utility>
#include <vector>

#include "core/mapping.h"

namespace pipemap {

namespace detail {
struct DpRangeTables;
struct DpSweepState;
}  // namespace detail

struct WarmStartState {
  /// Most recent solution under this state's problem family. The DP
  /// re-evaluates it under the current constraints (budget, floor) and
  /// uses the value as a pruning bound when it remains feasible.
  std::optional<Mapping> incumbent;

  /// Most recent greedy clustering; lets the engine skip the merge/split
  /// clustering search on adjacent solves (heuristic reuse — unlike DP
  /// warm starts, a clustering-seeded greedy run may return a different
  /// mapping than a cold one).
  std::vector<std::pair<int, int>> clustering;

  /// Reusable DP range tables (see dp_engine.h), most recently used
  /// first. A small pool rather than a single slot: frontier sweeps
  /// alternate between the latency-body and policy configuration rules at
  /// every floor, and a single slot would thrash where the pool keeps the
  /// floor-independent policy tables alive across the whole sweep. The DP
  /// scans for a usable entry and inserts a fresh one (evicting the
  /// least recently used beyond kMaxWarmTables) when none matches.
  std::vector<std::shared_ptr<detail::DpRangeTables>> tables;

  /// Captured DP sweep for incremental re-solves (see
  /// core/dp_sweep_state.h). Populated only when a solve runs with
  /// MapperOptions::incremental; a subsequent solve whose chain prefix and
  /// cost content are unchanged reuses the completed prefix stages and
  /// re-sweeps only the dirty suffix. A solve checks the state out
  /// exclusively (detach, mutate, re-attach on success), so an aborted
  /// re-solve can never leave a half-rebuilt grid behind for the next one.
  std::shared_ptr<detail::DpSweepState> sweep;

  /// Reuse statistics, for provenance and tests.
  std::uint64_t tables_reused = 0;
  std::uint64_t tables_built = 0;
  std::uint64_t incumbents_seeded = 0;
  std::uint64_t sweeps_captured = 0;
  std::uint64_t prefix_reused = 0;
};

}  // namespace pipemap
