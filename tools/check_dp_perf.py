#!/usr/bin/env python3
"""CI perf-smoke gate over bench_dp_parallel_scaling's JSON output.

Usage: check_dp_perf.py BENCH_dp_parallel.json baseline.json

Fails (exit 1) when:
  * any thread count changed the mapping (correctness — always
    enforced);
  * the single-thread wall time regressed more than the baseline's
    tolerance (default 20%) over its recorded wall time;
  * any run's DP table bytes exceed the baseline's max_table_bytes. The
    count is exact for the fixed chain, so this gate cannot flake; it
    catches a return to dense stage tables;
  * the host has >= 4 usable cores and the non-oversubscribed 4-thread
    run's speedup is below the baseline's floor (default 2.5x).

The speedup gate is skipped — with a note, not a failure — on hosts with
fewer than 4 cores, where the measured "speedup" is scheduling noise.
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        result = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    failures = []
    notes = []

    if not result.get("identical_mappings", False):
        failures.append("determinism: thread counts disagree on the mapping")

    runs = {r["threads"]: r for r in result.get("runs", [])}
    single = runs.get(1)
    if single is None:
        failures.append("no single-thread run in the benchmark output")
    else:
        tolerance = baseline.get("regression_tolerance", 0.2)
        limit = baseline["single_thread_wall_s"] * (1.0 + tolerance)
        if single["wall_s"] > limit:
            failures.append(
                "single-thread regression: %.3fs > %.3fs "
                "(baseline %.3fs + %d%%)"
                % (single["wall_s"], limit, baseline["single_thread_wall_s"],
                   int(tolerance * 100)))
        else:
            notes.append("single-thread wall %.3fs (limit %.3fs)"
                         % (single["wall_s"], limit))

    max_table_bytes = baseline["max_table_bytes"]
    oversized = [r for r in result.get("runs", [])
                 if r.get("table_bytes", float("inf")) > max_table_bytes]
    for run in oversized:
        failures.append("table bytes at %d threads: %s > %.0f"
                        % (run["threads"], run.get("table_bytes", "missing"),
                           max_table_bytes))
    if not oversized:
        notes.append("DP table bytes within %.0f" % max_table_bytes)

    hardware_threads = result.get("hardware_threads", 1)
    four = runs.get(4)
    min_speedup = baseline.get("min_speedup_4t", 2.5)
    if hardware_threads >= 4 and four and not four.get("oversubscribed"):
        if four["speedup"] < min_speedup:
            failures.append("4-thread speedup %.2fx < %.2fx floor"
                            % (four["speedup"], min_speedup))
        else:
            notes.append("4-thread speedup %.2fx (floor %.2fx)"
                         % (four["speedup"], min_speedup))
    else:
        notes.append(
            "4-thread speedup gate skipped: host reports %d usable core(s)"
            % hardware_threads)

    for note in notes:
        print("  " + note)
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
