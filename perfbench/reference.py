"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/reference.py [--seeds 1-10] [--seconds 10] [--trace 0|1] [WORKLOAD ...]

For each workload (all by default) this runs perfbench/run.py once per seed,
one run after another, and prints each metric's median, first and third
quartile (statistics.quantiles, n=4) and the quartile distance as a share of
the median, beside the metric's bound from BENCHMARK.json.  The table is
also written to perfbench/out/reference-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="any of: " + ", ".join(names))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        ap.error("unknown workload %s" % ", ".join(unknown))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    table = {}
    for workload in args.workloads or names:
        runs = []
        for seed in args.seeds:
            t = time.monotonic()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit("%s seed %d exited with %d" % (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            result["run_s"] = time.monotonic() - t
            runs.append(result)
            print("%s seed %d: %.1f s, attempted %d, failed %d" % (
                workload, seed, result["run_s"], result["attempted"], result["failed"]), flush=True)
        rows = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name),
                          "values": values}
        table[workload] = {"runs": len(runs), "run_s": [r["run_s"] for r in runs],
                           "failed_share": [r["failed"] / r["attempted"] for r in runs], "metrics": rows}
        print("\n%s: %d runs, %.0f s per run" % (workload, len(runs), statistics.median(table[workload]["run_s"])))
        for name, row in rows.items():
            bound = "" if row["bound"] is None else "bound %.2f" % row["bound"]
            print("  %-34s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %6.3f %s" % (
                name, row["median"], row["unit"], row["q1"], row["q3"], row["spread"], bound))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference-trace%d.json" % args.trace), "w") as fh:
        json.dump(table, fh, indent=1)


if __name__ == "__main__":
    main()
