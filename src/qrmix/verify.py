"""One-shot verification battery for the quasirandomness inequalities.

Each numbered criterion (character degrees, mixing bound, sharpness,
triple recurrence, case decomposition, van der Corput, ergodic projection,
reduction and Gram identities, estimator consistency) is a function of its
inputs returning an Outcome.  The acceptance tests call these functions
with their own inputs and tolerances; `run_verify` runs one profile, prints
one line per criterion, and writes verify_results.csv /
verify_summary.json.  Fully deterministic given (profile, master seed).

`inflate_d` is a debug fault injector: it adds an offset to D wherever a
bound is formed here, so that e.g. cyclic groups (D = 1, with equality
cases) demonstrably fail the inflated bound.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass

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
from .groups import PASS_TOL, build_group, conjugacy_classes
from .mixing import (
    mixing_bound_check,
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
from .sweep import _fmt, recurrence_trial, vdc_trial, write_csv, write_summary

CLOSED_FORM_RTOL = 1e-13

SUITE = ["symmetric:3", "symmetric:4", "sl2:5", "sl2:7", "sl2:13", "psl2:5", "psl2:7"]

# Inputs of each criterion, by number; criteria 4 and 5 share the reports of 4.
PROFILES = {
    "full": {
        1: {"groups": SUITE},
        2: {"groups": SUITE, "trials": 200},
        3: {"groups": ["cyclic:5", "cyclic:8", "cyclic:12"]},
        4: {"exact": ["sl2:5", "sl2:7", "sl2:13"], "sampled": ["sl2:37"],
            "trials": 20, "samples": 2000},
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
        4: {"exact": ["sl2:5"], "sampled": [], "trials": 5, "samples": 500},
        6: {"delta_groups": ["cyclic:8", "symmetric:3", "symmetric:4"],
            "corr_groups": ["symmetric:4"], "trials": 5},
        7: {"groups": ["symmetric:3", "symmetric:4"], "trials": 5},
        8: {"groups": ["symmetric:3"]},
        9: {"groups": ["symmetric:3"]},
        10: {"groups": ["cyclic:64"], "seeds": 20, "samples": 200},
    },
}

CSV_COLUMNS = ["criterion", "name", "group", "action", "trial", "bound", "measured", "pass"]


@dataclass
class Check:
    """One checked quantity: where it was measured, its value against its
    bound, its verdict, and the library's report behind it if there is one."""
    name: str
    group: str
    action: str = ""
    trial: object = ""
    bound: float = None
    measured: float = None
    passed: bool = True
    ci: float = None
    report: object = None


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
    for g in range(n):
        M[xs, G.vec_mul(xs, g)] += t[C.class_of[g]]
    eig = np.linalg.eigvals(M)
    order = np.lexsort((eig.imag, eig.real))
    eig = eig[order]
    mults = []
    i = 0
    while i < n:
        j = i
        while j < n and abs(eig[j] - eig[i]) < 1e-6:
            j += 1
        mults.append(j - i)
        i = j
    degrees = []
    for m in mults:
        d = math.isqrt(m)
        if d * d != m:
            raise ArithmeticError("eigenvalue multiplicity %d is not a perfect square" % m)
        degrees.append(d)
    return tuple(sorted(degrees))


def crit_degrees(groups, master=0, inflate=0, build=build_group):
    rows = []
    for desc in groups:
        G = build(desc)
        deg = character_degrees(G)
        D = quasirandom_degree(G)
        good = (sum(d * d for d in deg.degrees) == G.order
                and len(deg.degrees) == conjugacy_classes(G).k
                and deg.degrees[0] == 1
                and (D == math.inf or D == min(d for d in deg.degrees[1:])))
        rows.append(Check("degree_invariants", desc, measured=float(min(deg.degrees[1:], default=1)),
                          passed=good, report=deg))
    G = build("psl2:5")
    oracle = degrees_by_float_diagonalization(G, seed=derive_seed(master, "oracle"))
    dixon = tuple(sorted(character_degrees(G).degrees))
    rows.append(Check("psl2:5_oracle_crosscheck", "psl2:5", measured=float(oracle[1]),
                      passed=oracle == dixon and min(d for d in oracle if d > 1) == 3,
                      report=oracle))
    return Outcome(rows, rows)


def crit_mixing(groups, trials, master=0, inflate=0, build=build_group):
    records, rows = [], []
    for desc in groups:
        G = build(desc)
        D = quasirandom_degree(G)
        scale = math.sqrt(D / (D + inflate)) if inflate else 1.0
        checks = []
        for kind in ("right", "left", "conjugation"):
            for rep in mixing_bound_check(G, kind, trials, master):
                bound = rep.bound * scale
                checks.append(Check("mixing_bound", desc, kind, rep.trial, bound, rep.measured,
                                    rep.measured <= bound + PASS_TOL, report=rep))
        records += checks
        rows += [c for c in checks if not c.passed]
        rows.append(Check("mixing_bound", desc, measured=float(D),
                          passed=all(c.passed for c in checks)))
    return Outcome(records, rows)


def crit_sharpness(groups, master=0, inflate=0, build=build_group):
    rows = []
    for desc in groups:
        G = build(desc)
        n = G.order
        chi = Observable(ProbabilitySpace.uniform(n), np.exp(2j * np.pi * np.arange(n) / n))
        measured = mixing_error(cached_action(G, "left"), chi, chi)
        bound = (1.0 + inflate) ** -0.5 * chi.norm2 ** 2
        rows.append(Check("sharpness_witness", G.desc, "left", bound=bound, measured=measured,
                          passed=abs(measured - 1.0) <= IDENTITY_TOL and measured <= bound + PASS_TOL))
    return Outcome(rows, rows)


def recurrence_reports(exact, sampled, trials, samples, master=0, build=build_group):
    """Triple-recurrence reports shared by criteria 4 and 5."""
    reports = []
    for desc in exact + sampled:
        G = build(desc)
        for t in range(trials):
            reports.append(recurrence_trial(G, derive_seed(master, "recurrence", desc, t),
                                            None if desc in exact else samples))
    return reports


def crit_recurrence(reports, inflate=0):
    rows = []
    for t, rep in enumerate(reports):
        bound = 4.0 * (rep.D + inflate) ** -0.25
        rows.append(Check("triple_recurrence", rep.group, rep.mode, t, bound, rep.measured_total,
                          rep.measured_total <= bound + PASS_TOL, report=rep))
    return Outcome(rows, rows)


def crit_cases(reports, inflate=0):
    rows = []
    for t, rep in enumerate(reports):
        eps = (rep.D + inflate) ** -0.5
        good = (rep.measured_case_i <= eps + PASS_TOL
                and rep.measured_case_ii <= math.sqrt(5.0 * eps) + PASS_TOL
                and rep.measured_total <= rep.measured_case_i + rep.measured_case_ii + PASS_TOL)
        rows.append(Check("case_decomposition", rep.group, rep.mode, t,
                          eps + math.sqrt(5.0 * eps), rep.measured_case_i + rep.measured_case_ii,
                          good, report=rep))
    return Outcome(rows, rows)


def crit_vdc(delta_groups, corr_groups, trials, master=0, inflate=0, build=build_group):
    rows = []
    for desc in delta_groups:
        G = build(desc)
        n = G.order
        fam = VectorFamily(group=G, space=ProbabilitySpace.uniform(n),
                           vectors=math.sqrt(n) * np.eye(n, dtype=np.complex128))
        res = vdc_check(fam, Observable(fam.space, np.ones(n)))
        good = (abs(res.epsilon_lhs - 1.0 / n) <= CLOSED_FORM_RTOL / n
                and abs(res.rhs_integral - res.bound) <= IDENTITY_TOL)
        rows.append(Check("vdc_delta_closed_form", desc, bound=res.bound,
                          measured=res.rhs_integral, passed=good, report=res))
    records = list(rows)
    for desc in corr_groups:
        G = build(desc)
        checks = []
        for t in range(trials):
            res = vdc_trial(G, derive_seed(master, "vdc", desc, t), None)
            checks.append(Check("vdc_correlation", desc, trial=t, bound=res.bound,
                                measured=res.rhs_integral, passed=res.passed, report=res))
        records += checks
        rows += [c for c in checks if not c.passed]
        rows.append(Check("vdc_correlation", desc, passed=all(c.passed for c in checks)))
    return Outcome(records, rows)


def _worst(name, desc, checks):
    """One verdict row per group: the largest deviation of its checks."""
    worst = max(c.measured for c in checks)
    return Check(name, desc, measured=worst, passed=worst <= IDENTITY_TOL)


def crit_projection(groups, trials, master=0, inflate=0, build=build_group):
    records, rows = [], []
    for desc in groups:
        G = build(desc)
        space = ProbabilitySpace.uniform(G.order)
        ones = Observable(space, np.ones(G.order))
        checks = []
        for kind in ("left", "right", "conjugation"):
            a = cached_action(G, kind)
            for t in range(trials):
                seed = derive_seed(master, "projection", desc, kind, t)
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
                checks.append(Check("ergodic_projection", desc, kind, t, measured=dev))
        records += checks
        rows.append(_worst("ergodic_projection", desc, checks))
    return Outcome(records, rows)


def crit_reduction(groups, master=0, inflate=0, build=build_group):
    records, rows = [], []
    for desc in groups:
        G = build(desc)
        space = ProbabilitySpace.uniform(G.order)
        checks = []
        for kind in ("conjugation", "left"):
            a = cached_action(G, kind)
            for t in range(3):
                seed = derive_seed(master, "reduction", desc, kind, t)
                f1 = random_observable(space, derive_seed(seed, "f1"))
                f2 = random_observable(space, derive_seed(seed, "f2"))
                worst = max(disc for _, _, disc in reduction_identity_check(a, f1, f2, range(G.order)))
                checks.append(Check("reduction_identity", desc, kind, t, measured=worst))
        records += checks
        rows.append(_worst("reduction_identity", desc, checks))
    return Outcome(records, rows)


def crit_gram(groups, master=0, inflate=0, build=build_group):
    rows = []
    for desc in groups:
        G = build(desc)
        space = ProbabilitySpace.uniform(G.order)
        seed = derive_seed(master, "gram", desc)
        f2 = Observable(space, random_observable(space, derive_seed(seed, "f2")).values.real)
        f3 = Observable(space, random_observable(space, derive_seed(seed, "f3")).values.real)
        worst = max(gram_identity_check(G, f2, f3, g, h).discrepancy
                    for g in range(G.order) for h in range(G.order))
        rows.append(Check("gram_identity", desc, measured=worst, passed=worst <= IDENTITY_TOL))
    return Outcome(rows, rows)


def crit_estimator(groups, seeds, samples, master=0, inflate=0, build=build_group):
    """Per seed, measured is |estimate - exact| and ci the estimate's half-width."""
    records, rows = [], []
    for desc in groups:
        a = cached_action(build(desc), "left")
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


def _row(num, c):
    return {"criterion": str(num), "name": c.name, "group": c.group, "action": c.action,
            "trial": _fmt(c.trial), "bound": _fmt(c.bound), "measured": _fmt(c.measured),
            "pass": _fmt(bool(c.passed))}


def run_verify(out_dir, master_seed=0, profile="full", inflate_d=0):
    """Run the verification battery; returns process exit status (0/1)."""
    if profile not in PROFILES:
        raise ValueError("profile must be one of %s" % ", ".join(PROFILES))
    if inflate_d < 0:
        raise ValueError("inflate_d must be >= 0")
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be in [0, 2^64)")
    p = PROFILES[profile]
    built = {}

    def build(desc):   # each group once per run
        if desc not in built:
            built[desc] = build_group(desc)
        return built[desc]

    all_rows = []
    summary = {"master_seed": master_seed, "profile": profile,
               "inflate_d": inflate_d, "criteria": {}}
    rec_reports = recurrence_reports(**p[4], master=master_seed, build=build)
    status = 0
    for num, name, func in CRITERIA:
        if num in (4, 5):
            out = func(rec_reports, inflate_d)
        else:
            out = func(**p[num], master=master_seed, inflate=inflate_d, build=build)
        ok = all(c.passed for c in out.rows)
        all_rows.extend(_row(num, c) for c in out.rows)
        summary["criteria"][str(num)] = {"name": name, "pass": ok}
        print("%s  criterion %2d: %s" % ("PASS" if ok else "FAIL", num, name))
        if not ok:
            status = 1
    summary["all_pass"] = status == 0
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "verify_results.csv"), "w", newline="") as fh:
        write_csv(fh, CSV_COLUMNS, all_rows)
    write_summary(os.path.join(out_dir, "verify_summary.json"), summary)
    return status
