#!/usr/bin/env python3
"""pipemap daemon benchmark: one command, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload table2_hot --seed 1 --seconds 40 --trace 0

Run from the root of a pipemap checkout. It builds pipemap_server and the
perfbench program into .bench_build/, starts the daemon the way an operator
does (default workers and queue, --access-log on), and drives it with two
closed-loop callers for --seconds. Every response is checked against a
fresh in-process solve.

--trace 0 prints the end-to-end metrics; --trace 1 repeats the socket run
and adds a traced in-process replay of the same seeded requests, then
prints the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the host and the run. See perfbench/README.md.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("table2_hot", "cold_dp")
# Set-ups before the window, each on a fresh daemon, and as many again
# after it; setup_s is the median of all of them (scaled for steal).
SETUPS = 5
# A run must end within this many seconds of starting (builds excepted).
RUN_BUDGET_S = 165.0
# The record's latency_p99_ms is the median p99 over blocks of this many
# consecutive requests, so every p99 has at least ten samples beyond it.
P99_BLOCK = 1000
# The record's per-slice figures leave out slices shorter than this (the
# tail after the last slice boundary, while the last replies arrive).
MIN_SLICE_S = 1.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, ".bench_build")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    """Builds pipemap_server and the perfbench program in one tree:
    perfbench/CMakeLists.txt adds the checkout as a subproject. Returns
    their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no pipemap checkout around " + HERE)
    tree = os.path.join(build_dir(), "build")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", tree,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    run_quiet(["cmake", "--build", tree, "-j", str(min(4, os.cpu_count() or 1)),
               "--target", "pipemap_server", "perfbench"])
    return (os.path.join(tree, "pipemap", "tools", "pipemap_server"),
            os.path.join(tree, "perfbench"))


def run_json(cmd, deadline):
    """Runs one perfbench command in its own process group and returns the
    JSON document it prints. The whole group is killed on timeout, so no
    daemon outlives the run."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("timed out: " + " ".join(cmd[:2]))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd[:2]), proc.returncode))
    return json.loads(out)


def delta(before, after, *path):
    for key in path:
        before, after = before[key], after[key]
    return after - before


def integrity(workload, drive):
    """The daemon's own counters over the window, and whether the window
    took the path the workload is built for."""
    sb, sa = drive["stats_before"], drive["stats_after"]
    counts = {
        "requests": sum(drive["requests_per_caller"]),
        "hits": delta(sb, sa, "cache", "hits"),
        "misses": delta(sb, sa, "cache", "misses"),
        "disk_hits": delta(sb, sa, "cache", "persist", "hits"),
        "evictions": delta(sb, sa, "cache", "evictions"),
        "persist_writes": delta(sb, sa, "cache", "persist", "writes"),
        "persist_write_drops": delta(sb, sa, "cache", "persist", "write_drops"),
        "shared_solves": delta(sb, sa, "singleflight", "shared"),
        "rejected": delta(sb, sa, "server", "rejected"),
        "shed": delta(sb, sa, "server", "shed"),
        "timed_out": delta(sb, sa, "server", "timed_out"),
        "degraded": delta(sb, sa, "server", "degraded"),
        "log_lines_written": delta(sb, sa, "access_log", "lines_written"),
        "log_lines_dropped": delta(sb, sa, "access_log", "lines_dropped"),
    }
    c = counts
    problems = []
    if c["hits"] + c["misses"] != c["requests"]:
        problems.append("cache lookups != map requests")
    if workload == "table2_hot":
        if c["hits"] != c["requests"] or c["disk_hits"] != 0:
            problems.append("not every request was a memory hit")
    elif c["misses"] != c["requests"]:
        problems.append("not every request was a miss")
    return counts, problems


def exposition_buckets(metrics_response, family):
    """Cumulative bucket counts {le: count} of one histogram family."""
    pattern = re.compile(r'^%s_bucket\{le="([^"]+)"\} (\d+)$' % family)
    buckets = {}
    for line in metrics_response["exposition"].splitlines():
        m = pattern.match(line)
        if m and m.group(1) != "+Inf":
            buckets[float(m.group(1))] = int(m.group(2))
    return buckets


def window_quantile(before, after, family, q):
    """Quantile of the samples a histogram gained between two scrapes,
    interpolated inside its power-of-two bucket."""
    b = exposition_buckets(before, family)
    a = exposition_buckets(after, family)

    def cumulative(buckets, le):
        edges = [e for e in buckets if e <= le]
        return buckets[max(edges)] if edges else 0

    edges = sorted(set(a) | set(b))
    gained = [(le, cumulative(a, le) - cumulative(b, le)) for le in edges]
    if not gained or gained[-1][1] <= 0:
        return 0.0
    target = q * gained[-1][1]
    prev_le, prev_count = 0.0, 0
    for le, count in gained:
        if count >= target:
            low = max(prev_le, le / 2.0)
            share = (target - prev_count) / max(count - prev_count, 1)
            return low + (le - low) * share
        prev_le, prev_count = le, count
    return gained[-1][0]


def quantile(sorted_values, q):
    """The q-quantile of sorted values, interpolating linearly between ranks."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def figures(seconds, server_cpu_s, requests):
    """Throughput, median round trip and daemon CPU per request of the
    (done_s, latency_ms, passed) requests completed in `seconds` of wall
    time, during which the daemon used `server_cpu_s` of CPU."""
    return {
        "throughput_rps": sum(ok for _, _, ok in requests) / seconds,
        "latency_p50_ms": statistics.median(lat for _, lat, _ in requests),
        "server_cpu_ms_per_req": server_cpu_s * 1e3 / len(requests),
    }


def steal_share(s0, s1):
    """Share of the CPU time this machine wanted between two window
    samples that the hypervisor stole: steal / (busy + steal)."""
    steal = s1[3] - s0[3]
    wanted = s1[2] - s0[2] + steal
    return steal / wanted if wanted > 0 else 0.0


def window_slices(drive, requests):
    """(seconds, daemon CPU seconds, steal share, requests completed) of
    each slice between consecutive window samples; together they cover
    the window."""
    samples = drive["window"]["samples"]
    edges = [s[0] for s in samples[1:-1]]
    slices = [(s1[0] - s0[0], s1[1] - s0[1], steal_share(s0, s1), [])
              for s0, s1 in zip(samples, samples[1:])]
    for r in requests:
        slices[bisect.bisect_left(edges, r[0])][3].append(r)
    return slices


def p99_blocks(drive):
    """p99 of each run of P99_BLOCK consecutive completions (so each has at
    least ten samples beyond it), and how many samples lie beyond it."""
    window = drive["window"]
    ordered = [lat for _, lat in sorted(zip(window["done_s"],
                                            window["latency_ms"]))]
    blocks = max(1, len(ordered) // P99_BLOCK)
    size = len(ordered) // blocks if ordered else 0
    result = []
    for b in range(blocks):
        chunk = sorted(ordered[b * size:(b + 1) * size if b < blocks - 1
                               else len(ordered)])
        p99 = quantile(chunk, 0.99)
        result.append((p99, sum(1 for x in chunk if x > p99)))
    return result


def declared_metrics(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def end_to_end(drive):
    """The gated metrics, and the record's figures: the whole window as
    measured (from its start to the last reply), each slice, and the p99
    blocks.

    The hypervisor's steal slows every wall-clock figure: a CPU that has
    work but is not run stalls the request it serves. So each slice's
    seconds, and the round trips that completed in it, are scaled by the
    share of the machine's wanted CPU time the slice was given, 1 - steal
    share. Throughput is passed responses per second the machine ran, p50
    the median scaled round trip, and setup_s the median set-up, each
    scaled by its own share. CPU per request needs no scaling: stolen time
    is not charged to the daemon."""
    window = drive["window"]
    requests = sorted(zip(window["done_s"], window["latency_ms"],
                          window["passed"]))
    first, last = window["samples"][0], window["samples"][-1]
    whole = figures(last[0] - first[0], last[1] - first[1], requests)
    slices = window_slices(drive, requests)
    ran_s = sum(length * (1.0 - steal) for length, _, steal, _ in slices)
    metrics = {
        "throughput_rps": sum(ok for _, _, ok in requests) / ran_s,
        "latency_p50_ms": statistics.median(
            latency * (1.0 - steal)
            for _, _, steal, inside in slices for _, latency, _ in inside),
        "server_cpu_ms_per_req": whole["server_cpu_ms_per_req"],
        "server_peak_rss_mb": drive["server"]["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(
            t * (1.0 - steal) for t, steal in zip(
                drive["setup_s"], drive["setup_steal_share"])),
    }
    blocks = p99_blocks(drive)
    samples = {
        "window_s": last[0] - first[0],
        "host_steal_share": steal_share(first, last),
        "as_measured": dict(whole, setup_s=statistics.median(drive["setup_s"])),
        "slices": [dict(figures(length, cpu, inside), steal_share=steal,
                        requests=len(inside))
                   for length, cpu, steal, inside in slices
                   if length >= MIN_SLICE_S and inside],
        "latency_p99_ms": statistics.median(p for p, _ in blocks),
        "p99_blocks": len(blocks),
        "p99_min_beyond": min(n for _, n in blocks) if blocks else 0,
        "p99_valid": bool(blocks) and min(n for _, n in blocks) >= 10,
    }
    return metrics, samples


def per_layer(drive, replay, counts, cpu_ms):
    """The replay's layer metrics plus those taken from the socket run:
    the daemon's queue-wait histogram and cache counters over the window,
    and the replay's per-request time over the daemon's CPU per request."""
    metrics = dict(replay["metrics"])
    requests = max(counts["hits"] + counts["misses"], 1)
    metrics.update({
        "server.queue_wait_p99_us": window_quantile(
            drive["metrics_before"], drive["metrics_after"],
            "pipemap_server_queue_wait_us", 0.99),
        "io.request_kb":
            drive["request_bytes"] / max(drive["attempted"], 1) / 1024.0,
        "engine.requests": counts["hits"] + counts["misses"],
        "engine.cache_hits": counts["hits"],
        "engine.cache_hit_ratio": counts["hits"] / requests,
        "engine.disk_hit_share":
            counts["disk_hits"] / counts["hits"] if counts["hits"] else 0.0,
        "engine.persist_writes_per_req": counts["persist_writes"] / requests,
        "engine.shared_solves": counts["shared_solves"],
        "replay.served_ratio":
            replay["metrics"]["replay.request_ms"] / cpu_ms if cpu_ms else 0.0,
    })
    return metrics


def source_digest():
    """The commit when the checkout is a git work tree; otherwise (an
    exported tree) a digest of the sources the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def host_record():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_affinity": ",".join(str(c) for c in affinity),
        "cpu_model": model,
        "kernel": platform.release(),
        "build_type": BUILD_TYPE,
        "commit": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    server, perfbench = build()
    started = time.time()
    deadline = started + RUN_BUDGET_S
    work = os.path.join(build_dir(), "perfbench", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    replay = None
    try:
        if subprocess.run([perfbench, "selftest"], stdout=sys.stderr).returncode:
            raise RuntimeError("the answer check failed its self-test")
        drive = run_json([perfbench, "drive"] + common + [
            "--seconds", str(args.seconds),
            "--setups", str(SETUPS),
            "--server", server, "--work-dir", work], deadline)
        if args.trace:
            traces = os.path.join(build_dir(), "perfbench", "traces")
            os.makedirs(traces, exist_ok=True)
            replay = run_json([perfbench, "replay"] + common + [
                "--seconds", str(max(1.0, args.seconds / 2.0)),
                "--requests", ",".join(map(str, drive["requests_per_caller"])),
                "--work-dir", work,
                "--spans", os.path.join(traces, "%s-seed%d.jsonl" % (
                    args.workload, args.seed))], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts, problems = integrity(args.workload, drive)
    if drive["setup_failures"]:
        problems.append("%d set-up requests failed" % drive["setup_failures"])
    if not drive["server"]["exit_ok"]:
        problems.append("the daemon did not drain cleanly")
    if replay is not None:
        if replay["shadow_mismatches"]:
            problems.append("standalone DP disagreed with the engine")
        if replay["bad_replies"]:
            problems.append("replayed responses failed the reply check")
    e2e, window_samples = end_to_end(drive)
    metrics = (per_layer(drive, replay, counts, e2e["server_cpu_ms_per_req"])
               if replay is not None else e2e)
    units = declared_metrics("per_layer" if replay is not None else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(units)))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "samples": dict(window_samples, **{
            "window_requests": drive["requests_per_caller"],
            "latency_samples": len(drive["window"]["done_s"]),
            "setups": len(drive["setup_s"]),
            "references": drive["references"],
            "replay_window_requests": replay["window_requests"] if replay else 0,
            "replay_probe_requests": replay["probe_requests"] if replay else 0,
        }),
        "setup_s": drive["setup_s"],
        "setup_steal_share": drive["setup_steal_share"],
        "failures": drive["failures"],
        "window_counters": counts,
        "integrity_problems": problems,
        "elapsed_s": round(time.time() - started, 3),
    }
    results = os.path.join(build_dir(), "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=2)
    for problem in problems:
        log("integrity: " + problem)
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": drive["failed"] == 0 and not problems,
        "attempted": drive["attempted"],
        "failed": drive["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("error: %s" % e)
        sys.exit(1)
