"""One-shot verification battery for the quasirandomness inequalities.

Each numbered criterion (character degrees, mixing bound, sharpness,
triple recurrence, case decomposition, van der Corput, ergodic projection,
reduction and Gram identities, estimator consistency) takes built groups,
as the sweep's experiments do (sweep.py), and returns an Outcome of the
same `Check` records, written through the same row writer and named by
G.desc.  groups.plan decides, from |G|, which recurrence groups sample g.
The acceptance tests call these functions with their own inputs and
tolerances; `run_verify` builds one profile's groups once each, prints one
line per criterion, and writes verify_results.csv / verify_summary.json.
Fully deterministic given (profile, master seed).

Criterion 3 attains the mixing bound on cyclic groups.  The tests hold the
witnesses on non-abelian groups (tests/oracles.py, `isotypic_witness`): on
sl2:5, psl2:5, psl2:7 and sl2:7 they reach at least 0.8 of the mixing bound
and of the case-(i) bound.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple

import numpy as np

from .actions import (
    Observable,
    ProbabilitySpace,
    cached_action,
    gather_blocks,
    inner,
    invariant_projection,
    random_observable,
)
from .characters import character_degrees, quasirandom_degree
from .groups import PASS_TOL, build_group, conjugacy_classes, plan, row_chunks
from .mixing import (
    mixing_error,
    monte_carlo_mixing_error,
    reduction_identity_check,
)
from .recurrence import (
    IDENTITY_TOL,
    VectorFamily,
    gram_identity_check,
    vdc_check,
)
from .seeding import derive_seed
from .sweep import (Check, check_row, degrees_hold, mixing_checks, recurrence_trial, vdc_trial,
                    write_results, write_summary)

CLOSED_FORM_RTOL = 1e-13

SUITE = ["symmetric:3", "symmetric:4", "sl2:5", "sl2:7", "sl2:13", "psl2:5", "psl2:7"]

# Inputs of each criterion, by number; criteria 4 and 5 share the reports of 4.
PROFILES = {
    "full": {
        1: {"groups": SUITE},
        2: {"groups": SUITE, "trials": 200},
        3: {"groups": ["cyclic:5", "cyclic:8", "cyclic:12"]},
        4: {"groups": ["sl2:5", "sl2:7", "sl2:13", "sl2:37"], "trials": 20, "samples": 2000},
        6: {"delta_groups": ["cyclic:5", "cyclic:8", "cyclic:12", "symmetric:3",
                             "symmetric:4", "psl2:5", "sl2:5", "psl2:7", "sl2:7"],
            "corr_groups": ["symmetric:4", "sl2:5"], "trials": 100},
        7: {"groups": ["symmetric:3", "symmetric:4", "psl2:5", "sl2:5", "psl2:7", "sl2:7"],
            "trials": 50},
        8: {"groups": ["symmetric:3", "psl2:5"]},
        9: {"groups": ["symmetric:3", "psl2:5"]},
        10: {"groups": ["cyclic:64", "symmetric:5"], "seeds": 100, "samples": 200},
    },
    "quick": {
        1: {"groups": ["symmetric:3", "symmetric:4", "psl2:5"]},
        2: {"groups": ["symmetric:3", "symmetric:4", "psl2:5"], "trials": 5},
        3: {"groups": ["cyclic:5", "cyclic:8", "cyclic:12"]},
        4: {"groups": ["sl2:5"], "trials": 5, "samples": 500},
        6: {"delta_groups": ["cyclic:8", "symmetric:3", "symmetric:4"],
            "corr_groups": ["symmetric:4"], "trials": 5},
        7: {"groups": ["symmetric:3", "symmetric:4"], "trials": 5},
        8: {"groups": ["symmetric:3"]},
        9: {"groups": ["symmetric:3"]},
        10: {"groups": ["cyclic:64"], "seeds": 20, "samples": 200},
    },
}

CSV_COLUMNS = ["criterion", "name", "group", "action", "trial", "bound", "measured", "pass"]


# A criterion's result: every check it made, in input order (records), and
# the checks its verdict rests on, one CSV row each (rows).
Outcome = namedtuple("Outcome", "records rows")


def degrees_by_float_diagonalization(G, seed=0):
    """Character degrees via eigenvalue multiplicities of a generic central
    element in the regular representation.

    z = sum_i t_i (sum of class i) acts on C[G] by right multiplication;
    on each isotypic component (dimension d^2) it acts as a scalar, so the
    eigenvalue multiplicities of the |G| x |G| matrix are the d^2 values.
    Independent of the modular character machinery.
    """
    n = G.order
    C = conjugacy_classes(G)
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.0, 2.0, C.k) + 1j * rng.uniform(1.0, 2.0, C.k)
    xs = np.arange(n, dtype=np.int64)
    M = np.zeros((n, n), dtype=np.complex128)
    for gs, rows in zip(row_chunks(xs, n), G.translates(xs, right=True)):
        M[xs, rows] += t[C.class_of[gs]][:, None]   # no (x, x g) repeats within a block
    eig = np.sort_complex(np.linalg.eigvals(M))    # by real part, then imaginary
    degrees, i = [], 0
    while i < n:
        j = i
        while j < n and abs(eig[j] - eig[i]) < 1e-6:
            j += 1
        d = math.isqrt(j - i)
        if d * d != j - i:
            raise ArithmeticError("eigenvalue multiplicity %d is not a perfect square" % (j - i))
        degrees.append(d)
        i = j
    return tuple(sorted(degrees))


def crit_degrees(groups, master=0):
    rows = []
    for G in groups:
        deg = character_degrees(G)
        rows.append(Check("degree_invariants", G.desc,
                          measured=float(min(deg.degrees[1:], default=1)),
                          passed=degrees_hold(G, deg.degrees), report=deg))
    G = build_group("psl2:5")      # the oracle's fixed group, whatever the inputs
    oracle = degrees_by_float_diagonalization(G, seed=derive_seed(master, "oracle"))
    dixon = tuple(sorted(character_degrees(G).degrees))
    rows.append(Check("psl2:5_oracle_crosscheck", "psl2:5", measured=float(oracle[1]),
                      passed=oracle == dixon and min(d for d in oracle if d > 1) == 3,
                      report=oracle))
    return Outcome(rows, rows)


def crit_mixing(groups, trials, master=0):
    records, rows = [], []
    for G in groups:
        D = quasirandom_degree(G)
        checks = [c for kind in ("right", "left", "conjugation")
                  for c in mixing_checks(G, kind, trials, master)]
        records += checks
        rows += [c for c in checks if not c.passed]
        rows.append(Check("mixing_bound", G.desc, measured=float(D),
                          passed=all(c.passed for c in checks)))
    return Outcome(records, rows)


def crit_sharpness(groups, master=0):
    """The character pair x -> exp(2 pi i x / n) on cyclic:n attains the
    mixing bound with equality.  Nothing is drawn: master is taken only so
    that run_verify calls every criterion but 4 and 5 alike."""
    rows = []
    for G in groups:
        n = G.order
        chi = Observable(ProbabilitySpace.uniform(n), np.exp(2j * np.pi * np.arange(n) / n))
        measured = mixing_error(cached_action(G, "left"), chi, chi)
        bound = chi.norm2 ** 2
        rows.append(Check("sharpness_witness", G.desc, "left", bound=bound, measured=measured,
                          passed=abs(measured - 1.0) <= IDENTITY_TOL and measured <= bound + PASS_TOL))
    return Outcome(rows, rows)


def recurrence_reports(groups, trials, samples, master=0):
    """Triple-recurrence reports shared by criteria 4 and 5, `trials` per
    group, each over every g or over `samples` seeded g: groups.plan decides
    from |G|, as for the sweep's and the CLI's recurrence."""
    return [recurrence_trial(G, derive_seed(master, "recurrence", G.desc, t),
                             plan("recurrence", G.desc, G.order, samples))
            for G in groups for t in range(trials)]


def crit_recurrence(reports):
    rows = [Check("triple_recurrence", rep.group, rep.mode, t, 4.0 * rep.D ** -0.25,
                  rep.measured_total, report=rep) for t, rep in enumerate(reports)]
    return Outcome(rows, rows)


def crit_cases(reports):
    rows = []
    for t, rep in enumerate(reports):
        eps = rep.D ** -0.5
        good = (rep.measured_case_i <= eps + PASS_TOL
                and rep.measured_case_ii <= math.sqrt(5.0 * eps) + PASS_TOL
                and rep.measured_total <= rep.measured_case_i + rep.measured_case_ii + PASS_TOL)
        rows.append(Check("case_decomposition", rep.group, rep.mode, t,
                          eps + math.sqrt(5.0 * eps), rep.measured_case_i + rep.measured_case_ii,
                          good, report=rep))
    return Outcome(rows, rows)


def crit_vdc(delta_groups, corr_groups, trials, master=0):
    rows = []
    for G in delta_groups:
        n = G.order
        fam = VectorFamily(group=G, space=ProbabilitySpace.uniform(n),
                           vectors=math.sqrt(n) * np.eye(n, dtype=np.complex128))
        res = vdc_check(fam, Observable(fam.space, np.ones(n)))
        good = (abs(res.epsilon_lhs - 1.0 / n) <= CLOSED_FORM_RTOL / n
                and abs(res.rhs_integral - res.bound) <= IDENTITY_TOL)
        rows.append(Check("vdc_delta_closed_form", G.desc, bound=res.bound,
                          measured=res.rhs_integral, passed=good, report=res))
    records = list(rows)
    for G in corr_groups:
        checks = [vdc_trial(G, derive_seed(master, "vdc", G.desc, t), None, t)
                  for t in range(trials)]
        records += checks
        rows += [c for c in checks if not c.passed]
        rows.append(Check("vdc_correlation", G.desc, passed=all(c.passed for c in checks)))
    return Outcome(records, rows)


def _worst(name, desc, checks):
    """One verdict row per group: the largest deviation of its checks."""
    worst = max(c.measured for c in checks)
    return Check(name, desc, measured=worst, passed=worst <= IDENTITY_TOL)


def crit_projection(groups, trials, master=0):
    records, rows = [], []
    for G in groups:
        space = ProbabilitySpace.uniform(G.order)
        ones = Observable(space, np.ones(G.order))
        checks = []
        for kind in ("left", "right", "conjugation"):
            a = cached_action(G, kind)
            for t in range(trials):
                seed = derive_seed(master, "projection", G.desc, kind, t)
                f = random_observable(space, derive_seed(seed, "f"))
                h = random_observable(space, derive_seed(seed, "h"))
                pf = invariant_projection(a, f)
                ph = invariant_projection(a, h)
                dev = float(np.max(np.abs(invariant_projection(a, pf).values - pf.values)))
                dev = max(dev, abs(inner(space, pf, h) - inner(space, f, ph)))
                for (moved,) in gather_blocks(a.inv_rows(np.arange(G.order)), pf.values):
                    dev = max(dev, float(np.max(np.abs(moved - pf.values))))
                if kind in ("left", "right"):
                    mean = inner(space, f, ones)
                    dev = max(dev, float(np.max(np.abs(pf.values - mean))))
                checks.append(Check("ergodic_projection", G.desc, kind, t, measured=dev))
        records += checks
        rows.append(_worst("ergodic_projection", G.desc, checks))
    return Outcome(records, rows)


def crit_reduction(groups, master=0):
    records, rows = [], []
    for G in groups:
        space = ProbabilitySpace.uniform(G.order)
        checks = []
        for kind in ("conjugation", "left"):
            a = cached_action(G, kind)
            for t in range(3):
                seed = derive_seed(master, "reduction", G.desc, kind, t)
                f1 = random_observable(space, derive_seed(seed, "f1"))
                f2 = random_observable(space, derive_seed(seed, "f2"))
                worst = max(disc for _, _, disc in reduction_identity_check(a, f1, f2, range(G.order)))
                checks.append(Check("reduction_identity", G.desc, kind, t, measured=worst))
        records += checks
        rows.append(_worst("reduction_identity", G.desc, checks))
    return Outcome(records, rows)


def crit_gram(groups, master=0):
    rows = []
    for G in groups:
        space = ProbabilitySpace.uniform(G.order)
        seed = derive_seed(master, "gram", G.desc)
        f2 = Observable(space, random_observable(space, derive_seed(seed, "f2")).values.real)
        f3 = Observable(space, random_observable(space, derive_seed(seed, "f3")).values.real)
        worst = max(gram_identity_check(G, f2, f3, g, h).discrepancy
                    for g in range(G.order) for h in range(G.order))
        rows.append(Check("gram_identity", G.desc, measured=worst, passed=worst <= IDENTITY_TOL))
    return Outcome(rows, rows)


def crit_estimator(groups, seeds, samples, master=0):
    """Per seed, measured is |estimate - exact| and ci the estimate's half-width."""
    records, rows = [], []
    for G in groups:
        desc, a = G.desc, cached_action(G, "left")
        f1 = random_observable(a.space, derive_seed(master, "estimator", desc, "f1"))
        f2 = random_observable(a.space, derive_seed(master, "estimator", desc, "f2"))
        exact = mixing_error(a, f1, f2)
        checks = []
        for s in range(seeds):
            est, ci = monte_carlo_mixing_error(
                a, f1, f2, samples, derive_seed(master, "estimator", desc, s))
            checks.append(Check("estimator_consistency", desc, "left", s, measured=abs(est - exact),
                                ci=ci, passed=abs(est - exact) <= 3.0 * ci))
        records += checks
        hits = sum(c.passed for c in checks)
        rows.append(Check("estimator_consistency", desc, measured=float(hits), bound=float(seeds),
                          passed=hits >= math.ceil(0.95 * seeds)))
    return Outcome(records, rows)


CRITERIA = [
    (1, "character degrees and quasirandomness", crit_degrees),
    (2, "mixing bound D^(-1/2)", crit_mixing),
    (3, "sharpness witness on cyclic groups", crit_sharpness),
    (4, "triple recurrence bound 4 D^(-1/4)", crit_recurrence),
    (5, "case decomposition bounds", crit_cases),
    (6, "quantitative van der Corput", crit_vdc),
    (7, "mean ergodic projection", crit_projection),
    (8, "reduction identity", crit_reduction),
    (9, "Gram identity", crit_gram),
    (10, "estimator consistency", crit_estimator),
]


def run_verify(out_dir, master_seed=0, profile="full"):
    """Run the verification battery; returns process exit status (0/1)."""
    if profile not in PROFILES:
        raise ValueError("profile must be one of %s" % ", ".join(PROFILES))
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be in [0, 2^64)")
    build = functools.lru_cache(maxsize=None)(build_group)     # each group once per run
    inputs = {num: {key: [build(d) for d in v] if isinstance(v, list) else v
                    for key, v in entry.items()} for num, entry in PROFILES[profile].items()}
    all_rows = []
    summary = {"master_seed": master_seed, "profile": profile, "criteria": {}}
    rec_reports = recurrence_reports(**inputs[4], master=master_seed)
    for num, name, func in CRITERIA:
        out = func(rec_reports) if num in (4, 5) else func(**inputs[num], master=master_seed)
        ok = all(c.passed for c in out.rows)
        all_rows.extend(check_row(c, CSV_COLUMNS, criterion=num) for c in out.rows)
        summary["criteria"][str(num)] = {"name": name, "pass": ok}
        print("%s  criterion %2d: %s" % ("PASS" if ok else "FAIL", num, name))
    summary["all_pass"] = all(c["pass"] for c in summary["criteria"].values())
    write_results(os.path.join(out_dir, "verify_results.csv"), all_rows, CSV_COLUMNS)
    write_summary(os.path.join(out_dir, "verify_summary.json"), summary)
    return 0 if summary["all_pass"] else 1
