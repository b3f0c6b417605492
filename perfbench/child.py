"""One measurement of a workload in a fresh process.

Run by run.py, never by hand: `python3 perfbench/child.py --workload W
--seed N [--setup-only | --trace spans --trace-out PATH | --trace counts]`
with the package on PYTHONPATH.  The process imports edsx and builds the
workload's catalog structures (set-up), then runs the query list one query
at a time: it parses the literals that are not under test (untimed), runs
the query (timed) and checks its output exactly (untimed).  It prints one
JSON line.  With --trace the layers are traced from outside, by timed spans
(written to PATH) or by call counters.

Times are normalised to a reference speed.  On a shared CPU the speed a
process gets can drift by tens of percent within seconds; so a fixed loop of
the same kind of work the package does (dict and Fraction arithmetic, in
this file, never in the package) is timed before set-up, after it, and
after every SEGMENT_S of queries, and each interval is scaled by
CAL_NOMINAL_S over the mean of the loop times that bracket it.  The raw
times are reported too.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction

import workloads

clock = time.perf_counter

CAL_NOMINAL_S = 0.005     # the reference loop's time at the reference speed
SEGMENT_S = 0.25          # query time between two calibrations


def _reference_loop():
    acc = {}
    q = Fraction(3, 7)
    for i in range(1200):
        k = i & 15
        v = acc.get(k, Fraction(0)) - q * (i % 5 + 1)
        acc[k] = v if v.denominator < 10 ** 6 else Fraction(1, 3)
    return acc


def calibrate():
    """Current time of the reference loop: best of three, GC off so the
    size of the package's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t = clock()
            _reference_loop()
            best = min(best, clock() - t)
        return best
    finally:
        if enabled:
            gc.enable()


def _prepare(q, m):
    """(inputs, run): run is a no-argument callable asking q of the package.

    Only text and plain data cross into the package; literals that are not
    themselves under test are parsed here, outside the timed region, and
    returned as the inputs the verifier needs.
    """
    kind = q["kind"]
    get = m["catalog"].get_structure
    if kind == "check_operator":
        return None, lambda: m["dga"].check_operator(
            get(q["structure"]), q["op"], q["params"])
    if kind == "z_spaces":
        return None, lambda: m["dga"].z_spaces(
            get(q["structure"]), q["op"], q["params"])
    if kind == "restrict":
        def run():
            s = get(q["structure"])
            w = m["exterior"].Subspace.hyperplane(s.n, q["drop"])
            return m["restriction"].restrict_structure(s, "zero", None, w)
        return None, run
    if kind == "flag_test":
        return None, lambda: m["cartan"].flag_test(
            get(q["structure"]), tuple(q["flag"]))
    if kind == "casimir":
        return None, lambda: m["rep"].casimir_decompose(
            get(q["structure"]).lie, q["space"])
    if kind == "stability":
        return None, lambda: m["stability"].stability(
            get(q["structure"]).generators[q["generator"]])

    parse = m["scalar"].Scalar.parse
    ext = m["exterior"]
    if kind == "rank":
        rows = [[parse(t) for t in row] for row in q["rows"]]
        linalg = m["linalg"]
        return rows, lambda: linalg.rank(linalg.Matrix.from_rows(rows))
    if kind == "div_chain":
        a, by = parse(q["a"]), [parse(t) for t in q["by"]]

        def run():
            x = a
            for b in by:
                x = x / b
            return x
        return (a, by), run
    if kind == "hodge":
        a = ext.parse_form(q["form"], q["n"])
        return a, lambda: ext.hodge(ext.hodge(a))
    if kind == "wedge_contract":
        a = ext.parse_form(q["a"], q["n"])
        b = ext.parse_form(q["b"], q["n"])
        v = [parse(t) for t in q["v"]]
        return (a, b, v), lambda: ext.contract(v, ext.wedge(a, b))
    if kind == "scalar_parse":
        def run():
            s = parse(q["text"])
            return s, str(s)
        return None, run
    if kind == "form_parse":
        def run():
            f = ext.parse_form(q["text"], q["n"])
            return f, ext.form_literal(f)
        return None, run
    raise ValueError("unknown query kind %r" % (kind,))


def check_output(verify, q, inputs, out, err, digest):
    """Failed checks of one query, feeding its exact output to digest.

    A query fails when it raised (err holds the message) or when its output
    fails an exact check; a check that raises is a failure too.
    """
    if err is not None:
        bad = [err]
    else:
        try:
            bad = verify.problems(q, inputs, out)
            digest.update(verify.canonical(q["kind"], out).encode())
        except Exception as exc:
            bad = ["verification raised %s: %s" % (type(exc).__name__, exc)]
    digest.update(b"\0")
    return bad


def setup(workload, tracer_kinds=None):
    """Import the package and build the workload's structures.

    Returns (modules, tracer or None, raw seconds, normalised seconds).
    """
    cal_before = calibrate()
    t0 = clock()
    from edsx import (cartan, catalog, dga, exterior, linalg, rep,
                      restriction, scalar, stability)
    m = {"cartan": cartan, "catalog": catalog, "dga": dga,
         "exterior": exterior, "linalg": linalg, "rep": rep,
         "restriction": restriction, "scalar": scalar,
         "stability": stability}
    tracer = None
    if tracer_kinds:
        import tracer as tracing
        tracer = tracing.Tracer(tracer_kinds).install()
    for name in workloads.structures(workload):
        catalog.get_structure(name)
    raw = clock() - t0
    return m, tracer, raw, raw * 2 * CAL_NOMINAL_S / (cal_before + calibrate())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", choices=("spans", "counts"))
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    queries = workloads.generate(args.workload, args.seed)

    kinds = None
    if args.trace:
        import tracer as tracing
        kinds = tracing.SPANS if args.trace == "spans" else tracing.COUNTS
    m, tracer, setup_raw_s, setup_s = setup(args.workload, kinds)
    report = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import verify
    if tracer:
        tracer.active = False
    digest = hashlib.sha256()
    failed = 0
    messages = []
    raw = []
    lat = []
    cal = calibrate()
    cals = [cal]
    segment = 0.0
    for i, q in enumerate(queries):
        # prepare and verify outside the timed region, one query at a time,
        # so no output outlives its check
        inputs, run = _prepare(q, m)
        out = err = None
        if tracer:
            tracer.active = True
        t = clock()
        try:
            out = tracer.call(i, run) if tracer else run()
        except Exception as exc:
            err = "%s: %s" % (type(exc).__name__, exc)
        raw.append(clock() - t)
        if tracer:
            tracer.active = False
        bad = check_output(verify, q, inputs, out, err, digest)
        if bad:
            failed += 1
            if len(messages) < 5:
                messages.append("query %d (%s): %s"
                                % (i, q["kind"], "; ".join(bad)))
        segment += raw[-1]
        if segment >= SEGMENT_S or i == len(queries) - 1:
            cal_next = calibrate()
            cals.append(cal_next)
            scale = 2 * CAL_NOMINAL_S / (cal + cal_next)
            lat.extend(t * scale for t in raw[len(lat):])
            cal, segment = cal_next, 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            tracer.write_spans(args.trace_out)
        # layer seconds in the same reference-speed seconds as run_s
        scale = sum(lat) / sum(raw)
        report["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in tracer.layer_metrics().items()}
        report["absent"] = tracer.absent
        report["spans"] = len(tracer.spans)

    edsx = sys.modules["edsx"]
    rat = sys.modules.get("edsx._rat")
    report.update({
        "run_s": sum(lat), "run_raw_s": sum(raw), "lat_s": lat,
        "lat_raw_s": raw, "rss_mb": rss_mb,
        "cal_s": sorted(cals)[len(cals) // 2],
        "attempted": len(queries), "failed": failed, "failures": messages,
        "outputs": digest.hexdigest()[:16],
        "facts": {"python": platform.python_version(),
                  "nproc": os.cpu_count(),
                  "backend": getattr(rat, "BACKEND", "absent"),
                  "compiled": getattr(edsx, "COMPILED", "absent")},
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
