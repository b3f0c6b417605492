"""edsx benchmark: seeded query lists through the public edsx API.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/edsx.  Each measurement is a
fresh child process (perfbench/child.py), so the catalog cache and any
per-structure cache start empty, as they do for one CLI invocation; the
loop is closed, one client and one query at a time, and this process waits
idle while a child runs.  Children run one after another until --seconds
have passed, at least MIN_CHILDREN of them, then SETUP_PROBES children that
only set up.

--trace 0 prints the end-to-end metrics: run_s (time of the timed query
list, the sum of its per-query latencies), setup_s (import edsx plus the workload's get_structure calls) and
peak_rss_mb, each the median over the children, and query_p50_ms and
query_p90_ms, quantiles of the per-query latencies pooled over the
children.  failed_ratio is printed above the result line and carried by its
`failed` and `attempted` fields.  Times are in seconds at a reference
speed (see child.py); the raw medians are printed above the result line.
--trace 1 cycles through an untraced child, a child tracing timed spans and
one counting calls, and prints the per-layer metrics (medians over the
traced children) plus trace.overhead_ratio, the span child's run_s over the
untraced child's.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit status 2 means the package or the arguments are missing,
1 that a child could not run; neither prints a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

MIN_CHILDREN = 3
SETUP_PROBES = 4          # extra set-up-only children, for a steadier setup_s
DEADLINE_S = 170          # the whole run ends well inside 180 s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (("run_s", "s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_units():
    """Metric name -> unit of every per-layer metric, in print order."""
    names = list(tracer.Tracer().layer_metrics()) + ["trace.run_s",
                                                     "trace.overhead_ratio"]
    return {n: ("s" if n.endswith("_s") else
                "ratio" if n.endswith("_ratio") else "count") for n in names}


def _quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


class ChildFailed(RuntimeError):
    pass


def _child(args, env, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += extra
    left = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child exceeded the run deadline")
    if proc.returncode != 0:
        raise ChildFailed("child exited %d:\n%s"
                          % (proc.returncode, proc.stderr[-2000:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed("child printed no result:\n%s" % proc.stdout[-2000:])


def _run_children(args, env, start, deadline):
    """Untraced children, set-up probes, and with --trace 1 also span and
    count children."""
    plain, spans, counts, probes = [], [], [], []
    trace_out = os.path.join(TRACE_DIR, "trace_%s.tsv" % args.workload)
    while True:
        plain.append(_child(args, env, deadline))
        if args.trace:
            spans.append(_child(args, env, deadline, "--trace", "spans",
                                "--trace-out", trace_out))
            counts.append(_child(args, env, deadline, "--trace", "counts"))
        done = len(plain) >= (1 if args.trace else MIN_CHILDREN)
        spent = time.monotonic() - start
        per_child = spent / len(plain)
        if done and (spent >= args.seconds
                     or time.monotonic() + per_child > deadline):
            break
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(_child(args, env, deadline, "--setup-only"))
    return plain, spans, counts, probes, trace_out


def _end_to_end(kids, probes):
    lat = [t for k in kids for t in k["lat_s"]]
    return {
        "run_s": statistics.median(k["run_s"] for k in kids),
        "query_p50_ms": 1000 * _quantile(lat, 50),
        "query_p90_ms": 1000 * _quantile(lat, 90),
        "setup_s": statistics.median(k["setup_s"] for k in kids + probes),
        "peak_rss_mb": statistics.median(k["rss_mb"] for k in kids),
    }


def _per_layer(plain, spans, counts):
    out = {}
    for name in spans[0]["layers"]:
        kids = counts if name in tracer.COUNT_METRICS else spans
        out[name] = statistics.median(k["layers"][name] for k in kids)
    out["trace.run_s"] = statistics.median(k["run_s"] for k in spans)
    out["trace.overhead_ratio"] = out["trace.run_s"] / statistics.median(
        k["run_s"] for k in plain)
    return out


def _kind_summary(queries, kids):
    by_kind = {}
    for k in kids:
        for q, t in zip(queries, k["lat_s"]):
            by_kind.setdefault(q["kind"], []).append(t)
    return " ".join("%s=%d:%.3fms" % (kind, len(v) // len(kids),
                                      1000 * statistics.median(v))
                    for kind, v in sorted(by_kind.items()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "edsx", "__init__.py")):
        print("perfbench: no edsx package under %s" % SRC, file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    queries = workloads.generate(args.workload, args.seed)
    load_start = _loadavg()
    try:
        # compile the package once so no child pays for byte-compiling
        subprocess.run([sys.executable, "-c", "import edsx.papercheck"],
                       env=env, cwd=ROOT, check=True, timeout=120,
                       capture_output=True)
        plain, spans, counts, probes, trace_out = _run_children(
            args, env, start, deadline)
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    kids = plain + spans + counts
    attempted = sum(k["attempted"] for k in kids)
    failed = sum(k["failed"] for k in kids)
    digests = {k["outputs"] for k in kids}
    deterministic = len(digests) == 1
    facts = dict(plain[0]["facts"], loadavg_start=load_start,
                 loadavg_end=_loadavg())

    print("workload=%s seed=%d children=%d queries=%d inputs=%s outputs=%s"
          % (args.workload, args.seed, len(kids), len(queries),
             workloads.digest(queries), "/".join(sorted(digests))))
    print("facts " + json.dumps(facts, sort_keys=True))
    print("kinds " + _kind_summary(queries, plain))
    for k in kids:
        for msg in k["failures"]:
            print("FAILED " + msg)
    if not deterministic:
        print("FAILED outputs differ between children: %s"
              % sorted(digests))
    print("failed_ratio %.6g (%d of %d queries)"
          % (failed / attempted, failed, attempted))

    if args.trace:
        units = per_layer_units()
        values = _per_layer(plain, spans, counts)
        absent = sorted(set(a for k in spans + counts for a in k["absent"]))
        print("trace spans=%d file=%s absent=%s"
              % (spans[-1]["spans"], os.path.relpath(trace_out, ROOT),
                 ",".join(absent) or "none"))
    else:
        units = dict(END_TO_END)
        values = _end_to_end(plain, probes)
        n = sum(len(k["lat_s"]) for k in plain)
        print("latency samples=%d (%d children x %d queries)"
              % (n, len(plain), len(queries)))
        raw = [t for k in plain for t in k["lat_raw_s"]]
        print("raw " + json.dumps({
            "run_s": statistics.median(k["run_raw_s"] for k in plain),
            "query_p50_ms": 1000 * _quantile(raw, 50),
            "query_p90_ms": 1000 * _quantile(raw, 90),
            "setup_s": statistics.median(k["setup_raw_s"]
                                         for k in plain + probes),
            "reference_loop_s": statistics.median(k["cal_s"] for k in plain)}))
    for name, unit in units.items():
        print("%-40s %.6g %s" % (name, values[name], unit))

    result = {"correct": failed == 0 and deterministic,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
