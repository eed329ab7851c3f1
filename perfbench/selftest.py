"""Self-test of the benchmark's oracles on small groups; runs in seconds.

    python3 perfbench/selftest.py

On sl2:5, psl2:7, symmetric:4 and product:sl2:5,cyclic:3 it checks that
- each closed-form degree multiset has sum of squares |G|, and that it,
  the order and D match the program;
- the label arithmetic agrees with the program's kernel;
- exact mixing (three actions), exact triple recurrence and exact vdc
  recomputed from the label arithmetic match the program;
and that the oracles catch faults: a wrong degree multiset, a group table
with two products swapped, and a perturbed mixing value.
Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import qrmix  # noqa: E402

GROUPS = ("sl2:5", "psl2:7", "symmetric:4", "product:sl2:5,cyclic:3")


def disc(rng, n):
    return np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def check_group(desc, rng):
    failures = []
    tree = oracles.parse(desc)
    G = qrmix.build_group(desc)
    result = qrmix.character_degrees(G)
    D = qrmix.quasirandom_degree(G)
    arith = oracles.Arithmetic(tree)
    failures += oracles.degree_failures(tree, G, result, D)
    failures += oracles.kernel_failures(G, arith, rng)
    model = oracles.Model(G, arith)
    n = G.order
    space = qrmix.ProbabilitySpace.uniform(n)
    v1, v2, v3 = (disc(rng, n) for _ in range(3))
    f1, f2, f3 = (qrmix.Observable(space, v) for v in (v1, v2, v3))
    for kind in ("left", "right", "conjugation"):
        got = qrmix.mixing_error(qrmix.cached_action(G, kind), f1, f2)
        want = model.mixing(kind, v1, v2)
        if not oracles.close(got, want):
            failures.append("%s mixing %.17g, recomputed %.17g" % (kind, got, want))
        failures += oracles.mixing_failures(got, D, f1.norm2, f2.norm2)
    rep = qrmix.triple_recurrence_error(G, f1, f2, f3)
    got = (rep.measured_total, rep.measured_case_i, rep.measured_case_ii)
    want = model.recurrence(v1, v2, v3)
    if not all(oracles.close(a, b) for a, b in zip(got, want)):
        failures.append("recurrence %s, recomputed %s" % (got, want))
    failures += oracles.recurrence_failures(rep, D)
    res = qrmix.vdc_check(qrmix.correlation_family(G, f2, f3), f1)
    rhs, eps = model.vdc(v1, v2, v3, exact_eps=True)
    if not (oracles.close(res.rhs_integral, rhs) and oracles.close(res.epsilon_lhs, eps)):
        failures.append("vdc (%.17g, %.17g), recomputed (%.17g, %.17g)"
                        % (res.rhs_integral, res.epsilon_lhs, rhs, eps))
    failures += oracles.vdc_failures(res, f1.norm2)
    return failures, G, model, (v1, v2)


def fault_failures(G, model, values, rng):
    """The oracles must flag each injected fault; returns the faults they missed."""
    missed = []
    tree = oracles.parse(G.desc)
    wrong = qrmix.DegreeMultiset(degrees=tuple(sorted(oracles.degrees(tree)[:-1] + [1])),
                                 group_order=G.order)
    if not oracles.degree_failures(tree, G, wrong, oracles.quasirandom_degree(tree)):
        missed.append("a wrong degree multiset")
    table = G.table.copy()
    table[1, 2], table[1, 3] = table[1, 3], table[1, 2]
    broken = qrmix.GroupTable.from_table(table, G.desc)
    broken.backend.label = G.backend.label
    # 10^5 seeded pairs on |G|^2 = 14,400 hit the two swapped products ~14 times
    if not oracles.kernel_failures(broken, oracles.Arithmetic(tree), rng, pairs=100_000):
        missed.append("two swapped products in the group table")
    v1, v2 = values
    good = model.mixing("left", v1, v2)
    if oracles.close(good * (1 + 1e-6), good):
        missed.append("a mixing value off by one part in a million")
    return missed


def main():
    rng = np.random.default_rng(2014)
    bad = 0
    for desc in GROUPS:
        failures, G, model, values = check_group(desc, rng)
        if desc == "sl2:5":
            failures += ["oracle missed %s" % m for m in fault_failures(G, model, values, rng)]
        print("%-28s %s" % (desc, "ok" if not failures else "FAIL"))
        for f in failures:
            print("    " + f)
        bad += len(failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
