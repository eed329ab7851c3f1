"""qrmix benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the workload (perfbench/worker.py), one fresh process per
round and one round after another, until S seconds have passed and at least
MIN_ROUNDS rounds are done.  Every round repeats the same inputs, made from
--seed.  The figures are medians over the rounds, times in CPU seconds at
the reference speed of perfbench/speed.py.  With --trace 0 the last
line of standard output is the end-to-end metrics; with --trace 1 the
rounds run traced and the last line is the per-layer metrics, and the spans
go to perfbench/out/trace-<workload>.json (the latest traced run's).

Run from the root of a qrmix checkout: the program is imported from src/.
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
OUT = os.path.join(HERE, "out")

from speed import PROBE_REF_S  # noqa: E402  (perfbench/ is sys.path[0])
from tracer import LAYER_UNITS, self_times  # noqa: E402
from worker import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
DEADLINE_S = 170.0  # no round starts that could not end before this
BLAS_THREADS = "1"  # single-threaded BLAS: steady figures on a shared 2-core machine

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "check_s": "s",
    "translates_per_s": "g/s",
    "peak_rss_mib": "MiB",
}


def run_rounds(workload, seed, seconds, trace):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--round"]
    start = time.monotonic()
    rounds = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed >= seconds:
            break
        if elapsed + longest > DEADLINE_S:
            if len(rounds) >= MIN_ROUNDS:
                break
            raise SystemExit("round %d would pass the %.0f s deadline" % (len(rounds) + 1, DEADLINE_S))
        t = time.monotonic()
        proc = subprocess.run(cmd + [str(len(rounds))], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=DEADLINE_S + 5 - elapsed)
        longest = max(longest, time.monotonic() - t)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("round %d of %s exited with %d" % (len(rounds) + 1, workload, proc.returncode))
        rounds.append(json.loads(proc.stdout.splitlines()[-1]))
    return rounds


def end_to_end(rounds):
    def med(key):
        return statistics.median(r[key] for r in rounds)

    return {
        "cpu_s": med("cpu_s"),
        "setup_s": med("setup_s"),
        "check_s": med("check_s"),
        "translates_per_s": statistics.median(r["translates"] / r["check_s"] for r in rounds),
        "peak_rss_mib": med("peak_rss_mib"),
    }


def per_layer(rounds):
    return {name: statistics.median(r["layers"][name] for r in rounds) for name in LAYER_UNITS}


def write_trace(path, workload, seed, rounds):
    """Spans of every round, with each span's self time and a per-name summary."""
    out = {"workload": workload, "seed": seed,
           "span_fields": ["name", "start_s", "end_s", "parent", "attrs", "self_s"], "rounds": []}
    for i, r in enumerate(rounds):
        spans = r["spans"]
        own = self_times(spans)
        by_name = {}
        for s, o in zip(spans, own):
            entry = by_name.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s[2] - s[1]
            entry["self_s"] += o
        out["rounds"].append({
            "round": i,
            "traced_wall_s": r["layers"]["trace.wall_s"],
            "sum_self_s": sum(own),
            # the benchmark's own code between layer calls: drawing observables, bookkeeping
            "bench_self_s": sum(o for s, o in zip(spans, own) if s[0].startswith("bench.")),
            "by_name": by_name,
            "spans": [s + [o] for s, o in zip(spans, own)],
        })
    with open(path, "w") as fh:
        json.dump(out, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description="qrmix benchmark: one workload, closed loop.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qrmix", "__init__.py")):
        sys.stderr.write("run.py: no qrmix source at %s; run from a qrmix checkout\n"
                         % os.path.join(ROOT, "src", "qrmix"))
        return 2

    rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [f for r in rounds for f in r["oracle_failures"]]
    problems += ["round %d results differ from round 0's on the same inputs" % i
                 for i, r in enumerate(rounds) if r["results"] != rounds[0]["results"]]
    for r in rounds:
        for err in r["errors"]:
            sys.stderr.write(err + "\n")
    for p in problems:
        sys.stderr.write("ORACLE: %s\n" % p)

    if args.trace:
        metrics = per_layer(rounds)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(rounds)
        units = END_TO_END_UNITS

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
    if args.trace:
        write_trace(os.path.join(OUT, "trace-%s.json" % args.workload),
                    args.workload, args.seed, rounds)
    print("workload %s, seed %d, %d rounds, trace %d" % (args.workload, args.seed, len(rounds), args.trace))
    for name, value in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, units[name]))
    print("  verdicts attempted %d, failed %d, oracle mismatches %d" % (attempted, failed, len(problems)))
    raw_cpu = statistics.median(r["raw_cpu_s"] for r in rounds)
    if args.trace:
        untraced = stem + "-trace0.json"
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = statistics.median(r["raw_cpu_s"] for r in json.load(fh)["rounds"])
            print("  tracing overhead: traced CPU %.4f s - untraced %.4f s = %.4f s"
                  % (raw_cpu, base, raw_cpu - base))
    else:
        print("  unscaled CPU %.4f s, wall %.4f s, speed probe %.3f ms (scaled by %.3f ms / probe)"
              % (raw_cpu, statistics.median(r["wall_s"] for r in rounds),
                 1e3 * statistics.median(r["probe_median_s"] for r in rounds), 1e3 * PROBE_REF_S))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open("%s-trace%d.json" % (stem, args.trace), "w") as fh:
        json.dump(dict(result, rounds=[{k: v for k, v in r.items() if k != "spans"} for r in rounds]), fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
