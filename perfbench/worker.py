"""One round of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --round R --trace 0|1

A round imports qrmix from the checkout's src/, sets up every group of the
workload (build, conjugacy classes, character degrees), then runs the
workload's seeded checks through the public API.  Untraced rounds are timed
in CPU seconds at the reference speed of perfbench/speed.py; the wall time
and the unscaled CPU time are kept beside them.  The clock stops at the
last verdict; after that every result is checked against perfbench/oracles.py
(the exact recomputations on round 0 only: later rounds repeat its inputs,
and run.py requires their results to be identical).  The round's figures go
to standard output as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@dataclass(frozen=True)
class Op:
    check: str              # "mixing" | "recurrence" | "vdc"
    group: str
    mode: str = "exact"     # "exact" | "sampled"
    action: str = None      # mixing only
    trials: int = 1
    samples: int = None     # sampled mode: translates per trial; vdc: (g, h) pairs


ACTIONS = ("left", "right", "conjugation")


def _exact_battery(desc, trials=1):
    """Exact mixing on each action, exact recurrence, and the family with vdc."""
    return ([Op("mixing", desc, action=a, trials=trials) for a in ACTIONS]
            + [Op("recurrence", desc, trials=trials), Op("vdc", desc, samples=256)])


def _sampled_battery(desc, samples, rec_trials=1, actions=ACTIONS):
    return ([Op("recurrence", desc, "sampled", trials=rec_trials, samples=samples)]
            + [Op("mixing", desc, "sampled", action=a, samples=samples) for a in actions])


# Every workload runs every layer; each has one main load and small probes
# so that every per-layer metric is measured on every workload.
WORKLOADS = {
    # The tier-1 hot spot: sampled g on SL(2,37) through the dense-LUT kernel.
    # sl2:5 is an exact probe (|G| = 120, vdc's exact branch).
    "recurrence-sampled": {
        "groups": ["sl2:37", "sl2:5"],
        "ops": _sampled_battery("sl2:37", 60, rec_trials=2) + _exact_battery("sl2:5"),
    },
    # |G| x |G| row matrices on dense-table groups; psl2:7 and sl2:7 are at or
    # below vdc's exact cutoff (512), sl2:11 and sl2:13 above it.  A short
    # sampled trial on sl2:13 keeps the sampled metrics measured.
    "exact-dense": {
        "groups": ["psl2:7", "sl2:7", "sl2:11", "sl2:13"],
        "ops": (_exact_battery("psl2:7", 2) + _exact_battery("sl2:7", 2)
                + _exact_battery("sl2:11", 2) + _exact_battery("sl2:13", 2)
                + _sampled_battery("sl2:13", 60, actions=("conjugation",))),
    },
    # Set-up at the top of the range: class constants on psl2:101 through the
    # binary-search kernel, the Dixon split and degree lift on k = 162 classes.
    "degrees-large": {
        "groups": ["psl2:101", "product:sl2:5,product:sl2:5,cyclic:2", "sl2:5"],
        "ops": ([Op("recurrence", "psl2:101", "sampled", samples=2)]
                + _sampled_battery("product:sl2:5,product:sl2:5,cyclic:2", 30,
                                   actions=("conjugation",))
                + _exact_battery("sl2:5")),
    },
}


def _rng(seed, *key):
    """The benchmark's own stream for one input, from --seed and a label."""
    import numpy as np
    return np.random.default_rng([seed, zlib.crc32("/".join(map(str, key)).encode())])


def _disc(rng, n):
    """n values uniform on the closed unit disc."""
    import numpy as np
    return np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def observables(seed, op, trial, n, count):
    """count observables' values for one trial, and a seed for the program's sampler."""
    rng = _rng(seed, op.check, op.group, op.mode, op.action, trial)
    values = [_disc(rng, n) for _ in range(count)]
    return values, int(rng.integers(0, 2**63))


def run_trial(qrmix, G, op, trial, seed):
    """Call the program once; returns (record, translates)."""
    n = G.order
    space = qrmix.ProbabilitySpace.uniform(n)
    if op.check == "mixing":
        (v1, v2), sample_seed = observables(seed, op, trial, n, 2)
        a = qrmix.cached_action(G, op.action)
        f1, f2 = qrmix.Observable(a.space, v1), qrmix.Observable(a.space, v2)
        if op.mode == "exact":
            return {"measured": qrmix.mixing_error(a, f1, f2), "passed": True}, n
        est, _ = qrmix.monte_carlo_mixing_error(a, f1, f2, op.samples, sample_seed)
        return {"measured": est, "passed": True}, op.samples
    if op.check == "recurrence":
        (v1, v2, v3), sample_seed = observables(seed, op, trial, n, 3)
        fs = [qrmix.Observable(space, v) for v in (v1, v2, v3)]
        if op.mode == "exact":
            rep = qrmix.triple_recurrence_error(G, *fs)
        else:
            rep = qrmix.triple_recurrence_error(G, *fs, mode="monte_carlo",
                                                samples=op.samples, seed=sample_seed)
        return {"report": rep, "passed": rep.passed and rep.decomposition_ok}, rep.samples or n
    (v, v2, v3), sample_seed = observables(seed, op, trial, n, 3)
    family = qrmix.correlation_family(G, qrmix.Observable(space, v2), qrmix.Observable(space, v3))
    res = qrmix.vdc_check(family, qrmix.Observable(space, v), samples=op.samples, seed=sample_seed)
    rows = _rng(seed, "rows", op.group).integers(0, n, 4)
    # keep four rows for the oracle and let the |G| x |G| family go
    sampled_rows = {int(g): family.vectors[g].copy() for g in rows}
    return {"result": res, "rows": sampled_rows, "passed": res.passed}, 0


def _result_values(rec):
    """The numbers a trial produced, for the identical-results check across rounds."""
    if "measured" in rec:
        return [rec["measured"]]
    if "report" in rec:
        rep = rec["report"]
        return [rep.measured_total, rep.measured_case_i, rep.measured_case_ii]
    res = rec["result"]
    return [res.epsilon_lhs, res.rhs_integral, res.bound]


def oracle_failures(oracles, groups, records, seed, exact_groups):
    """Every oracle and inequality check on one round's results."""
    import numpy as np

    failures = []
    trees = {desc: oracles.parse(desc) for desc in groups}
    for desc, (G, degrees, D) in groups.items():
        tree = trees[desc]
        failures += ["%s: %s" % (desc, f) for f in oracles.degree_failures(tree, G, degrees, D)]
        failures += ["%s: %s" % (desc, f) for f in oracles.kernel_failures(
            G, oracles.Arithmetic(tree), _rng(seed, "kernel", desc))]
    models = {desc: oracles.Model(groups[desc][0], oracles.Arithmetic(trees[desc]))
              for desc in exact_groups}
    for op, trial, rec in records:
        G = groups[op.group][0]
        D = oracles.quasirandom_degree(trees[op.group])
        model = models.get(op.group) if trial == 0 else None
        count = 2 if op.check == "mixing" else 3
        vals, _ = observables(seed, op, trial, G.order, count)
        norms = [float(np.sqrt(np.mean(np.abs(v) ** 2))) for v in vals]
        where = "%s %s %s %s trial %d" % (op.group, op.check, op.mode, op.action or "", trial)
        found = []
        if op.check == "mixing":
            found += oracles.mixing_failures(rec["measured"], D, norms[0], norms[1])
            if model is not None and op.mode == "exact":
                want = model.mixing(op.action, vals[0], vals[1])
                if not oracles.close(rec["measured"], want):
                    found.append("mixing %.17g, recomputed %.17g" % (rec["measured"], want))
        elif op.check == "recurrence":
            rep = rec["report"]
            found += oracles.recurrence_failures(rep, D)
            if model is not None and op.mode == "exact":
                got = (rep.measured_total, rep.measured_case_i, rep.measured_case_ii)
                want = model.recurrence(*vals)
                if not all(oracles.close(a, b) for a, b in zip(got, want)):
                    found.append("recurrence %s, recomputed %s" % (got, want))
        else:
            res = rec["result"]
            found += oracles.vdc_failures(res, norms[0])
            if model is not None:
                rhs, eps = model.vdc(vals[0], vals[1], vals[2], exact_eps=res.mode == "exact")
                if not oracles.close(res.rhs_integral, rhs):
                    found.append("vdc integral %.17g, recomputed %.17g" % (res.rhs_integral, rhs))
                if eps is not None and not oracles.close(res.epsilon_lhs, eps):
                    found.append("vdc eps %.17g, recomputed %.17g" % (res.epsilon_lhs, eps))
                for g, row in rec["rows"].items():
                    if not np.allclose(row, model.family_row(g, vals[1], vals[2]), rtol=0, atol=1e-12):
                        found.append("family row %d differs from f2(g^-1 x) f3(g^-1 x g)" % g)
        failures += ["%s: %s" % (where, f) for f in found]
    return failures


def run_round(workload, seed, round_index, trace):
    from speed import SpeedClock
    clock = SpeedClock(probing=not trace)  # traced rounds are not probed
    clock.start()
    t0 = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(t0)
        root_span = tracer.open("bench.round", start=0.0)  # the round's clock started at t0
        phase = tracer.open("bench.import")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qrmix
    if tracer:
        tracer.install(qrmix)
        tracer.close(phase)

    spec = WORKLOADS[workload]
    attempted = failed = 0
    errors = []
    groups = {}
    if tracer:
        phase = tracer.open("bench.setup")
    for desc in spec["groups"]:
        attempted += 1
        try:
            G = qrmix.build_group(desc)
            qrmix.conjugacy_classes(G)
            degrees = qrmix.character_degrees(G)
            groups[desc] = (G, degrees, qrmix.quasirandom_degree(G))
        except Exception:
            failed += 1
            errors.append(traceback.format_exc(limit=3))
    setup_mark = clock.mark()
    if tracer:
        tracer.close(phase)
        phase = tracer.open("bench.check")

    records = []
    translates = 0
    for op in spec["ops"]:
        for trial in range(op.trials):
            attempted += 1
            if op.group not in groups:
                failed += 1
                continue
            try:
                rec, g_count = run_trial(qrmix, groups[op.group][0], op, trial, seed)
            except Exception:
                failed += 1
                errors.append(traceback.format_exc(limit=3))
                continue
            translates += g_count
            if not rec["passed"]:
                failed += 1
                errors.append("%s on %s: the program's verdict is fail" % (op.check, op.group))
                continue
            records.append((op, trial, rec))
    end_mark = clock.mark()
    clock.stop()
    wall_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "raw_cpu_s": clock.raw(0, end_mark),
        "raw_setup_s": clock.raw(0, setup_mark),
        "raw_check_s": clock.raw(setup_mark, end_mark),
        "wall_s": wall_s,
        "marks": clock.marks,  # [program CPU s, speed probe s]
        "translates": translates,
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    if not trace:
        out.update(cpu_s=clock.scaled(0, end_mark), setup_s=clock.scaled(0, setup_mark),
                   check_s=clock.scaled(setup_mark, end_mark), probe_median_s=statistics.median(clock.probes()))
    if tracer:
        tracer.close(phase)
        tracer.close(root_span)
        from tracer import layer_metrics
        root = tracer.spans[root_span]
        out["layers"] = layer_metrics(tracer.spans, root[2] - root[1])
        out["spans"] = list(tracer.spans)  # the oracle calls below are not part of the round

    import oracles
    # groups with exact checks are small enough to rebuild whole from their labels
    exact = set() if round_index else {op.group for op in spec["ops"]
                                       if op.mode == "exact" and op.group in groups}
    out["results"] = [_result_values(rec) for _, _, rec in records]
    try:
        out["oracle_failures"] = oracle_failures(oracles, groups, records, seed, exact)
    except Exception:
        out["oracle_failures"] = ["oracle raised: " + traceback.format_exc(limit=3)]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run_round(args.workload, args.seed, args.round, args.trace)))


if __name__ == "__main__":
    main()
