import math

import numpy as np
import pytest

from qrmix import (
    Observable,
    ProbabilitySpace,
    build_group,
    cached_action,
    inner,
    invariant_projection,
    koopman_apply,
    mixing_bound_check,
    mixing_error,
    monte_carlo_mixing_error,
    quasirandom_degree,
    random_observable,
    reduction_identity_check,
)

from qrmix.groups import PASS_TOL
from qrmix.seeding import derive_seed

from oracles import WITNESS_GROUPS, isotypic_witness, traced_memory, trivial_action


def _pair(space, seed):
    return random_observable(space, seed), random_observable(space, seed + 1)


# ---------------------------------------------------------------------------
# exact functional


@pytest.mark.parametrize("kind", ["left", "right", "conjugation"])
def test_constant_second_argument_gives_zero(kind):
    G = build_group("symmetric:4")
    a = cached_action(G, kind)
    f1 = random_observable(a.space, 20)
    const = Observable(a.space, np.full(G.order, 0.7 - 0.2j))
    assert mixing_error(a, f1, const) < 1e-14


@pytest.mark.parametrize("n", [5, 8, 12])
def test_character_sharpness_on_cyclic(n):
    # f1 = f2 = nontrivial character: <chi, g.chi> = chi(g), P chi = 0,
    # so every integrand term has modulus 1 and the average is exactly 1
    G = build_group("cyclic:%d" % n)
    space = ProbabilitySpace.uniform(n)
    chi = Observable(space, np.exp(2j * np.pi * np.arange(n) / n))
    assert abs(mixing_error(cached_action(G, "left"), chi, chi) - 1.0) <= 1e-10


def test_absolute_homogeneity():
    G = build_group("dihedral:6")
    a = cached_action(G, "left")
    f1, f2 = _pair(a.space, 21)
    base = mixing_error(a, f1, f2)
    c = 2.5 - 1.5j
    scaled = mixing_error(a, Observable(a.space, c * f1.values), f2)
    assert abs(scaled - abs(c) * base) < 1e-10


def test_crude_cauchy_schwarz_ceiling():
    G = build_group("symmetric:4")
    for kind in ("left", "conjugation"):
        a = cached_action(G, kind)
        f1, f2 = _pair(a.space, 22)
        ceiling = (f1.norm2 + invariant_projection(a, f1).norm2) * f2.norm2
        assert mixing_error(a, f1, f2) <= ceiling + 1e-12


def test_trivial_action_measures_zero_deviation():
    G = build_group("symmetric:3")
    a = trivial_action(G)
    f1, f2 = _pair(a.space, 23)
    # g.f2 = f2 and P = identity, so the integrand vanishes identically
    assert mixing_error(a, f1, f2) < 1e-14


# ---------------------------------------------------------------------------
# bound checks


def test_psl2_5_right_translation_bound():
    G = build_group("psl2:5")
    assert quasirandom_degree(G) == 3
    reports = mixing_bound_check(G, "right", 50, 17)
    assert all(r.passed for r in reports)
    f_norms_bound = 3 ** -0.5
    assert all(r.bound <= f_norms_bound * math.sqrt(G.order) for r in reports)


def test_sl2_5_bound_all_actions():
    G = build_group("sl2:5")
    for kind in ("left", "right", "conjugation"):
        assert all(r.passed for r in mixing_bound_check(G, kind, 20, 31))


def test_cyclic_bound_passes_with_degree_one():
    reports = mixing_bound_check(build_group("cyclic:8"), "left", 10, 5)
    assert all(r.D == 1 and r.passed for r in reports)


@pytest.mark.parametrize("desc", WITNESS_GROUPS)
def test_isotypic_witness_nearly_attains_the_mixing_bound(desc):
    """f1 = f2 in one isotypic component of degree D reaches at least 0.8 of
    D^(-1/2) ||f1||_2 ||f2||_2 under left and right translation: a fault that
    shrinks the measured error fails here, where random pairs keep slack."""
    G = build_group(desc)
    d, values = isotypic_witness(G)
    D = quasirandom_degree(G)
    assert d == D
    f = Observable(ProbabilitySpace.uniform(G.order), values)
    assert f.norm_inf == pytest.approx(1.0)
    for kind in ("left", "right"):
        ratio = mixing_error(cached_action(G, kind), f, f) / (D ** -0.5 * f.norm2 ** 2)
        assert 0.8 <= ratio <= 1.0 + PASS_TOL, (kind, ratio)


def test_reports_deterministic():
    a = mixing_bound_check(build_group("symmetric:4"), "left", 5, 77)
    b = mixing_bound_check(build_group("symmetric:4"), "left", 5, 77)
    assert [r.measured for r in a] == [r.measured for r in b]


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_monte_carlo_requires_minimum_samples():
    G = build_group("cyclic:16")
    a = cached_action(G, "left")
    f1, f2 = _pair(a.space, 40)
    with pytest.raises(ValueError):
        monte_carlo_mixing_error(a, f1, f2, 10, 0)


def test_monte_carlo_requires_a_seed():
    # no seed would draw g from fresh entropy: two calls would disagree
    G = build_group("sl2:5")
    a = cached_action(G, "left")
    f1, f2 = _pair(a.space, 40)
    with pytest.raises(ValueError, match="needs samples and a seed"):
        monte_carlo_mixing_error(a, f1, f2, 30, None)


def test_monte_carlo_deterministic_in_seed():
    G = build_group("cyclic:64")
    a = cached_action(G, "left")
    f1, f2 = _pair(a.space, 41)
    assert monte_carlo_mixing_error(a, f1, f2, 100, 9) == \
        monte_carlo_mixing_error(a, f1, f2, 100, 9)


def test_sampled_report_seed_replays_its_estimate():
    # psl2:7 (|G| = 168) samples g above exact_max_order 100, as in the golden
    # sweep: the report's samples and seed give back its estimate and half-width
    G = build_group("psl2:7")
    a = cached_action(G, "left")
    reps = mixing_bound_check(G, "left", 2, 5, mc_samples=30, exact_max_order=100)
    for t, rep in enumerate(reps):
        f1, f2 = (random_observable(a.space, derive_seed(5, G.desc, "left", t, s))
                  for s in ("f1", "f2"))
        assert (rep.mode, rep.seed) == ("monte_carlo", derive_seed(5, G.desc, "left", t, "mc"))
        assert monte_carlo_mixing_error(a, f1, f2, rep.samples, rep.seed) == \
            (rep.measured, rep.ci_halfwidth)
    assert [rep.seed for rep in mixing_bound_check(G, "left", 2, 5)] == [None, None]   # exact


def test_monte_carlo_constant_gives_zero():
    G = build_group("cyclic:32")
    a = cached_action(G, "left")
    f1 = random_observable(a.space, 42)
    const = Observable(a.space, np.ones(32))
    est, ci = monte_carlo_mixing_error(a, f1, const, 50, 1)
    assert est < 1e-14 and ci < 1e-14


def test_monte_carlo_consistent_with_exact():
    G = build_group("cyclic:64")
    a = cached_action(G, "left")
    f1, f2 = _pair(a.space, 43)
    exact = mixing_error(a, f1, f2)
    hits = 0
    for s in range(20):
        est, ci = monte_carlo_mixing_error(a, f1, f2, 200, s)
        hits += abs(est - exact) <= 3 * ci
    assert hits >= 19


@pytest.mark.parametrize("kind, desc", [
    *(pytest.param(k, "sl2:13", id=k) for k in ("left", "right", "conjugation")),
    *(pytest.param(k, "sl2:17", id=k + "-sl2:17") for k in ("left", "right", "conjugation"))])
def test_exact_mixing_matches_per_g_koopman_average(kind, desc):
    # sl2:13: 2184 = 145 * 15 + 9, a short last row block; sl2:17: 4896, no dense table
    G = build_group(desc)
    a = cached_action(G, kind)
    f1, f2 = _pair(a.space, 62)
    ref = inner(a.space, invariant_projection(a, f1), invariant_projection(a, f2))
    u = f1.values * a.space.weights     # <f1, g . f2> = vdot(g . f2, f1 nu)
    literal = math.fsum(abs(np.vdot(koopman_apply(a, g, f2).values, u) - ref)
                        for g in range(G.order)) / G.order
    assert mixing_error(a, f1, f2) == pytest.approx(literal, rel=1e-12)


@pytest.mark.parametrize("kind", ["left", "right", "conjugation"])
def test_exact_mixing_holds_no_square_temporary(kind):
    G = build_group("sl2:13")
    a = cached_action(G, kind)
    list(G.translates([0], right=True))     # builds the table's transpose, held by G
    f1, f2 = _pair(a.space, 64)
    with traced_memory() as memory:
        mixing_error(a, f1, f2)
        peak = memory()[1]
    assert peak < G.order * G.order * 8    # half of one |G| x |G| complex array


# ---------------------------------------------------------------------------
# reduction identity


def test_reduction_identity_trivial_cases():
    G = build_group("symmetric:3")
    a = cached_action(G, "conjugation")
    f1, f2 = _pair(a.space, 50)
    lhs, rhs, disc = reduction_identity_check(a, f1, f2, G.identity)
    assert abs(lhs - inner(a.space, f1, f2)) < 1e-12
    assert disc < 1e-10
    ones = Observable(a.space, np.ones(G.order))
    lhs, rhs, disc = reduction_identity_check(a, ones, ones, 3)
    assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12


@pytest.mark.parametrize("desc,kind", [("symmetric:3", "conjugation"),
                                       ("symmetric:3", "left"),
                                       ("dihedral:5", "conjugation"),
                                       ("psl2:5", "left")])
def test_reduction_identity_exhaustive(desc, kind):
    G = build_group(desc)
    a = cached_action(G, kind)
    f1, f2 = _pair(a.space, 51)
    for g in range(G.order):
        assert reduction_identity_check(a, f1, f2, g)[2] <= 1e-10


@pytest.mark.parametrize("kind", ["conjugation", "left"])
def test_reduction_identity_sequence_matches_single_g(kind):
    # one call over a sequence of g gives each g's triple, bit for bit
    G = build_group("symmetric:4")
    a = cached_action(G, kind)
    f1, f2 = _pair(a.space, 52)
    gs = [0, 5, 17, 23, 5]
    assert reduction_identity_check(a, f1, f2, gs) == \
        [reduction_identity_check(a, f1, f2, g) for g in gs]
