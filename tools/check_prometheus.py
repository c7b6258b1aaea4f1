#!/usr/bin/env python3
"""Validate a Prometheus text exposition (v0.0.4).

Accepts either a raw exposition file or a pipemap `metrics` op JSON
response (detected by a leading '{'; the exposition is unwrapped from the
"exposition" field). Checks the invariants the server promises:

  * every non-comment line is `name[{labels}] value` with a legal metric
    name and a parseable value;
  * a family's `# TYPE` line precedes every one of its samples, and
    `# HELP`/`# TYPE` name the same family they annotate;
  * histogram families export cumulative `_bucket{le="..."}` series with
    nondecreasing counts, a final `le="+Inf"` bucket, and
    `+Inf == _count`;
  * an empty document is valid (the zero-series exposition a server
    serves while metrics collection is off at run time).

Exit 0 when valid, 1 with a reason on stderr otherwise.
"""

import argparse
import json
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)


def fail(msg):
    print(f"check_prometheus: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_value(text):
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def family_of(sample_name, histogram_families):
    """The family a sample belongs to (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in histogram_families:
                return base
    return sample_name


def load_exposition(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        if "exposition" not in doc:
            fail(f"{path}: JSON input has no 'exposition' field")
        if doc.get("ok") is not True:
            fail(f"{path}: metrics response is not ok")
        return doc["exposition"]
    return text


def check(text):
    types = {}  # family -> type
    histogram_families = set()
    helped = set()
    buckets = {}  # family -> list of (le, count)
    counts = {}  # family -> _count value
    samples = 0

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not NAME_RE.match(parts[2]):
                fail(f"line {lineno}: malformed HELP line: {line!r}")
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not NAME_RE.match(parts[2]):
                fail(f"line {lineno}: malformed TYPE line: {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                fail(f"line {lineno}: unknown metric type {kind!r}")
            if name in types:
                fail(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = kind
            if kind == "histogram":
                histogram_families.add(name)
            continue
        if line.startswith("#"):
            continue  # other comments are legal

        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {lineno}: malformed sample line: {line!r}")
        samples += 1
        name = m.group("name")
        value = parse_value(m.group("value"))
        family = family_of(name, histogram_families)
        if family not in types:
            fail(f"line {lineno}: sample {name!r} has no preceding TYPE")

        if types[family] == "histogram":
            if name == family + "_bucket":
                labels = m.group("labels") or ""
                le = None
                for item in labels.split(","):
                    if item.startswith('le="') and item.endswith('"'):
                        le = item[4:-1]
                if le is None:
                    fail(f"line {lineno}: histogram bucket without le label")
                buckets.setdefault(family, []).append(
                    (parse_value(le), value))
            elif name == family + "_count":
                counts[family] = value

    for family in histogram_families:
        series = buckets.get(family, [])
        if not series:
            fail(f"histogram {family} exports no buckets")
        prev_le, prev_count = None, -1.0
        for le, count in series:
            if prev_le is not None and le <= prev_le:
                fail(f"histogram {family}: le bounds not increasing")
            if count < prev_count:
                fail(f"histogram {family}: cumulative counts decrease "
                     f"at le={le}")
            prev_le, prev_count = le, count
        if series[-1][0] != float("inf"):
            fail(f"histogram {family}: last bucket is not +Inf")
        if family not in counts:
            fail(f"histogram {family}: missing _count")
        if series[-1][1] != counts[family]:
            fail(f"histogram {family}: +Inf bucket {series[-1][1]} != "
                 f"_count {counts[family]}")

    return samples, len(types)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="exposition file or metrics-op JSON")
    parser.add_argument("--require-families", type=int, default=0,
                        help="fail unless at least N families are present")
    args = parser.parse_args()

    text = load_exposition(args.path)
    samples, families = check(text)
    if families < args.require_families:
        fail(f"only {families} families present, "
             f"need >= {args.require_families}")
    print(f"check_prometheus: OK ({families} families, {samples} samples)")


if __name__ == "__main__":
    main()
