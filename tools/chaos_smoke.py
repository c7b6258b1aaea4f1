#!/usr/bin/env python3
"""Chaos smoke: a real pipemap_server under a seeded fault storm.

Usage: chaos_smoke.py SERVER_BIN LOADGEN_BIN [--chaos SPEC] [--retries N]

Starts the daemon with --chaos armed (deterministic seeded injector:
delayed/truncated reads, dropped connections, slowed solves, failing
persistence writes) plus a throwaway --cache-dir so the persistence
seams actually fire, then drives the fixed-seed loadgen mix with a
transport-retry budget. The point is not that every request succeeds —
it is that the failure envelope stays clean:

  * loadgen exits 0: zero malformed responses, zero trace-id
    mismatches, no connection exhausted its retry budget (injected
    drops and truncations must surface as clean reconnect-and-retry,
    never as garbage frames);
  * the storm demonstrably fired (the drain document's chaos block is
    enabled and reports at least one injection — a smoke that injects
    nothing proves nothing);
  * SIGTERM still drains within the timeout and prints
    '"drained": true' — chaos must not wedge graceful shutdown.

Exit 0 on a clean envelope, 1 with reasons on stderr.
"""
import json
import shutil
import signal
import subprocess
import sys
import tempfile

DEFAULT_CHAOS = ("seed=7,read_delay=0.05:5ms,conn_drop=0.05,"
                 "solver_slow=0.1:5ms,persist_write_fail=0.25")
LOADGEN_ARGS = ["--connections", "4", "--requests", "16", "--variants", "4",
                "--skew", "0.5", "--seed", "3", "--op", "mix"]


def fail(msg):
    print("chaos_smoke: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def main() -> int:
    args = sys.argv[1:]
    chaos_spec = DEFAULT_CHAOS
    retries = 10
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--chaos":
            chaos_spec = args[i + 1]
            i += 2
        elif args[i] == "--retries":
            retries = int(args[i + 1])
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if len(positional) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    server_bin, loadgen_bin = positional

    cache_dir = tempfile.mkdtemp(prefix="pipemap-chaos-smoke-")
    server = subprocess.Popen(
        [server_bin, "--chaos", chaos_spec, "--cache-dir", cache_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        line = server.stdout.readline().strip()
        parts = line.split()
        if len(parts) != 3 or parts[0] != "listening":
            fail("server did not report a port: %r" % line)
        port = int(parts[2])
        print("chaos_smoke: server on port %d, storm %r" % (port, chaos_spec))

        cmd = ([loadgen_bin, "--port", str(port), "--retries", str(retries)]
               + LOADGEN_ARGS)
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=120)
        try:
            summary = json.loads(result.stdout)
        except ValueError:
            fail("loadgen emitted no summary JSON (exit %d)"
                 % result.returncode)
        if result.returncode != 0:
            fail("loadgen exited %d: malformed=%s transport_errors=%s "
                 "trace_mismatches=%s"
                 % (result.returncode, summary.get("malformed"),
                    summary.get("transport_errors"),
                    summary.get("trace_mismatches")))
        if summary["malformed"] or summary["trace_mismatches"]:
            fail("storm produced malformed=%d trace_mismatches=%d"
                 % (summary["malformed"], summary["trace_mismatches"]))
        print("chaos_smoke: loadgen clean — ok=%d retries=%d shed=%d "
              "degraded=%d server_errors=%d"
              % (summary["ok"], summary["retries"], summary["shed"],
                 summary["degraded"], summary["server_errors"]))

        server.send_signal(signal.SIGTERM)
        try:
            out, _ = server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            fail("server did not drain under chaos within 60s")
        if server.returncode != 0:
            fail("server exited %d" % server.returncode)
        if '"drained": true' not in out:
            fail("no drain document on stdout")
        drain = json.loads(out)
        injected = dict(drain["chaos"])
        if not injected.pop("enabled"):
            fail("drain document's chaos block is not enabled — storm "
                 "never armed")
        fired = sum(injected.values())
        if fired == 0:
            fail("chaos armed but injected nothing; raise the "
                 "probabilities or request count")
        print("chaos_smoke: drained clean, %d faults injected: %s"
              % (fired, json.dumps(injected)))
    finally:
        if server.poll() is None:
            server.kill()
        shutil.rmtree(cache_dir, ignore_errors=True)
    print("chaos_smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
