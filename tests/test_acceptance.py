"""Acceptance gate: the numbered quantitative criteria, each as one test
with its pinned inputs and tolerances, printing a single pass/fail line.

The criteria run through the verification battery's own functions
(qrmix.verify); each test hands them the inputs pinned here and judges the
returned checks by the tolerances pinned here, none taken from the package.
Every test also counts the checks it received, so a battery that skips
inputs fails.  All randomness is seeded from MASTER; every run of this
module checks the same inputs.
"""

import json
import math
import subprocess
import sys

import pytest

from qrmix import build_group, conjugacy_classes, quasirandom_degree, verify

import oracles

MASTER = 0
SUITE = ["symmetric:3", "symmetric:4", "sl2:5", "sl2:7", "sl2:13",
         "psl2:5", "psl2:7"]

_GROUPS = {}


def group(desc):
    if desc not in _GROUPS:
        _GROUPS[desc] = build_group(desc)
    return _GROUPS[desc]


def check(num, name, ok, detail=""):
    line = "criterion %2d [%s] %s %s" % (num, "PASS" if ok else "FAIL", name, detail)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. character degrees


def test_criterion_01_character_degrees():
    records = verify.crit_degrees([group(d) for d in SUITE], MASTER).records
    degrees = {r.group: r.report.degrees for r in records if r.name == "degree_invariants"}
    ok = list(degrees) == SUITE
    for desc, deg in degrees.items():
        G = group(desc)
        ok &= sum(d * d for d in deg) == G.order
        ok &= len(deg) == conjugacy_classes(G).k
        ok &= quasirandom_degree(G) == min(d for d in deg[1:])
    for desc in ("psl2:5", "sl2:5"):      # smallest cases, independent oracle
        ok &= oracles.degrees_by_eigen_multiplicity(group(desc)) == tuple(sorted(degrees[desc]))
    ok &= min(degrees["psl2:5"][1:]) == 3
    check(1, "character degrees, sum of squares, oracle cross-check", ok)


# ---------------------------------------------------------------------------
# 2. mixing bound, exact mode, 200 pairs per action


def test_criterion_02_mixing_bound():
    reps = [r.report for r in verify.crit_mixing([group(d) for d in SUITE], 200, MASTER).records]
    ok = len(reps) == 200 * 3 * len(SUITE) and all(rep.mode == "exact" for rep in reps)
    ok &= all(rep.measured <= rep.bound + 1e-9 for rep in reps)
    worst = max(rep.measured - rep.bound for rep in reps)
    check(2, "mixing error <= D^(-1/2) ||f1|| ||f2|| on 200 pairs x 3 actions x 7 groups",
          ok, "worst margin %.3g" % worst)


# ---------------------------------------------------------------------------
# 3. sharpness witness


def test_criterion_03_sharpness_witness():
    records = verify.crit_sharpness([group(d) for d in ["cyclic:5", "cyclic:8", "cyclic:12"]],
                                    MASTER).records
    ok = len(records) == 3
    ok &= all(abs(r.measured - 1.0) <= 1e-10 for r in records)
    check(3, "cyclic character pair achieves mixing error 1 within 1e-10", ok)


# ---------------------------------------------------------------------------
# 4 & 5. triple recurrence and case decomposition (shared reports)


@pytest.fixture(scope="module")
def recurrence_reports():
    return verify.recurrence_reports([group(d) for d in ["sl2:5", "sl2:7", "sl2:13", "sl2:37"]],
                                     trials=20, samples=2000, master=MASTER)


@pytest.mark.slow
def test_criterion_04_triple_recurrence(recurrence_reports):
    reps = [r.report for r in verify.crit_recurrence(recurrence_reports).records]
    ok = len(reps) == 80
    ok &= all(rep.measured_total <= 4.0 * rep.D ** -0.25 + 1e-9 for rep in reps)
    sl2_37 = [rep for rep in reps if rep.group == "sl2:37"]
    ok &= len(sl2_37) == 20 and all(rep.D == 18 for rep in sl2_37)
    # every g of |G| <= 3000, 2000 sampled g of sl2:37 (|G| = 50,616)
    ok &= [(rep.group, rep.mode, rep.samples) for rep in reps] == \
        [(d, "exact", None) for d in ("sl2:5", "sl2:7", "sl2:13") for _ in range(20)] + \
        [("sl2:37", "monte_carlo", 2000)] * 20
    ok &= 4.0 * 18 ** -0.25 < 2.0     # non-vacuous against the trivial ceiling
    check(4, "triple recurrence <= 4 D^(-1/4), sl2 p in {5,7,13} exact, p=37 sampled", ok)


@pytest.mark.slow
def test_criterion_05_case_decomposition(recurrence_reports):
    reps = [r.report for r in verify.crit_cases(recurrence_reports).records]
    ok = len(reps) == 80
    for rep in reps:
        eps = rep.D ** -0.5
        ok &= rep.measured_case_i <= eps + 1e-9
        ok &= rep.measured_case_ii <= math.sqrt(5.0 * eps) + 1e-9
        ok &= rep.measured_total <= rep.measured_case_i + rep.measured_case_ii + 1e-9
    check(5, "case (i) <= eps, case (ii) <= sqrt(5 eps), triangle decomposition", ok)


# ---------------------------------------------------------------------------
# 6. quantitative van der Corput


def test_criterion_06_van_der_corput():
    small = [d for d in SUITE if group(d).order <= 512] + \
        ["cyclic:5", "cyclic:8", "cyclic:12"]
    records = verify.crit_vdc([group(d) for d in small],
                              [group(d) for d in ["symmetric:4", "sl2:5"]], 100, MASTER).records
    delta = [r for r in records if r.name == "vdc_delta_closed_form"]
    corr = [r.report for r in records if r.name == "vdc_correlation"]
    ok = len(delta) == 9 and len(corr) == 200
    for r in delta:
        n = group(r.group).order
        # closed form 1/|G|, reproduced to the rounding of sqrt(|G|)
        ok &= abs(r.report.epsilon_lhs - 1.0 / n) <= 1e-13 / n
        ok &= abs(r.report.rhs_integral - r.report.bound) <= 1e-10
    ok &= all(res.rhs_integral <= res.bound + 1e-9 for res in corr)
    check(6, "delta family closed form + 100 correlation families per group", ok)


# ---------------------------------------------------------------------------
# 7. mean ergodic projection


def test_criterion_07_mean_ergodic_projection():
    groups = [d for d in SUITE if group(d).order <= 360]
    records = verify.crit_projection([group(d) for d in groups], 50, MASTER).records
    worst = max(r.measured for r in records)
    ok = len(records) == 50 * 3 * len(groups) == 900
    ok &= worst <= 1e-10
    check(7, "projection idempotent, self-adjoint, invariant; ergodic mean", ok,
          "worst deviation %.3g" % worst)


# ---------------------------------------------------------------------------
# 8. reduction identity


def test_criterion_08_reduction_identity():
    groups = [d for d in SUITE if group(d).order <= 60]
    records = verify.crit_reduction([group(d) for d in groups], MASTER).records
    worst = max(r.measured for r in records)
    ok = len(records) == 3 * 2 * len(groups) == 18
    ok &= worst <= 1e-10
    check(8, "action-to-right-translation reduction, exhaustive over g", ok,
          "worst discrepancy %.3g" % worst)


# ---------------------------------------------------------------------------
# 9. Gram identity


def test_criterion_09_gram_identity():
    groups = [d for d in SUITE if group(d).order <= 60]
    records = verify.crit_gram([group(d) for d in groups], MASTER).records
    worst = max(r.measured for r in records)
    ok = [r.group for r in records] == groups == ["symmetric:3", "symmetric:4", "psl2:5"]
    ok &= worst <= 1e-10
    check(9, "Gram identity, exhaustive (g, h), real inputs", ok,
          "worst discrepancy %.3g" % worst)


# ---------------------------------------------------------------------------
# 10. estimator consistency


def test_criterion_10_estimator_consistency():
    groups = ["cyclic:64", "symmetric:5"]
    records = verify.crit_estimator([group(d) for d in groups], 100, 200, MASTER).records
    ok = len(records) == 200
    for desc in groups:
        seeds = [r for r in records if r.group == desc]
        ok &= len(seeds) == 100 and sum(r.measured <= 3.0 * r.ci for r in seeds) >= 95
    check(10, "Monte Carlo estimate within 3 ci of exact in >= 95/100 seeds", ok)


# ---------------------------------------------------------------------------
# 11. determinism of the verification runner


def test_criterion_11_verify_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "qrmix", "verify", "--profile", "quick",
             "--seed", "7", "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout,
                     (out_dir / "verify_results.csv").read_bytes(),
                     (out_dir / "verify_summary.json").read_bytes()))
    ok = outs[0] == outs[1]
    ok &= json.loads(outs[0][2].decode())["all_pass"] is True
    check(11, "two verify runs with one master seed are byte-identical", ok)
