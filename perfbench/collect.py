"""Run a set of benchmark runs and summarise their spread.

    python3 perfbench/collect.py --workloads operators,radical,field \
        --seeds 1-10 [--trace-seeds 1] [--out perfbench/BASELINE.json]

Each run is `run.py --workload W --seed S --seconds N --trace 0`, one after
another.  For every end-to-end metric the summary gives the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the bound BENCHMARK.json fixes for it.  With --out the runs are
also written out, with the machine facts and the load average of each run,
as the baseline later changes are compared with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    out = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    facts = next(json.loads(l[6:]) for l in lines if l.startswith("facts "))
    raw = [json.loads(l[4:]) for l in lines if l.startswith("raw ")]
    head = lines[0].split()
    return {"workload": workload, "seed": seed, "trace": trace,
            "inputs": head[4].partition("=")[2],
            "outputs": head[5].partition("=")[2],
            "loadavg": [facts.pop("loadavg_start"), facts.pop("loadavg_end")],
            "facts": facts, "raw": raw[0] if raw else None,
            "result": json.loads(lines[-1])}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="operators,radical,field")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    summary = {}
    for w in args.workloads.split(","):
        for trace, seeds in ((0, _seeds(args.seeds)),
                             (1, _seeds(args.trace_seeds))):
            for seed in seeds:
                r = run_once(w, seed, bench["run_seconds"], trace)
                runs.append(r)
                res = r["result"]
                print("%s seed=%d trace=%d correct=%s failed=%d/%d load=%s"
                      % (w, seed, trace, res["correct"], res["failed"],
                         res["attempted"], r["loadavg"][0].split()[0]),
                      flush=True)
        plain = [r["result"] for r in runs
                 if r["workload"] == w and r["trace"] == 0]
        if len(plain) < 2:
            continue
        summary[w] = {}
        for name in bounds:
            s = summarise([p["metrics"][name]["value"] for p in plain])
            summary[w][name] = s
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%.3f (bound %.2f)" % (name, s["median"], s["q1"],
                                         s["q3"], s["spread"], bounds[name]))
            raw = [r["raw"][name] for r in runs if r["workload"] == w
                   and r["trace"] == 0 and name in (r["raw"] or {})]
            if len(raw) >= 2:
                print("  %-14s raw spread %.3f" % ("", summarise(raw)["spread"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"command": bench["command"],
                       "run_seconds": bench["run_seconds"],
                       "facts": runs[0]["facts"], "summary": summary,
                       "runs": runs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
