import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrmix import (
    ActionTable,
    Observable,
    PreconditionError,
    ProbabilitySpace,
    RecurrenceReport,
    VectorFamily,
    build_group,
    cached_action,
    case_decomposition,
    conjugacy_classes,
    correlation_family,
    gram_identity_check,
    inner,
    invariant_projection,
    mixing_error,
    quasirandom_degree,
    random_observable,
    triple_product_average,
    triple_recurrence_error,
    vdc_check,
)
from qrmix import groups
from qrmix.groups import COLUMN_TILE, PASS_TOL, ROW_BLOCK
from qrmix.recurrence import IDENTITY_TOL

from oracles import WITNESS_GROUPS, bessel_check, isotypic_witness, traced_memory


def _real(space, seed):
    f = random_observable(space, seed)
    return Observable(space, f.values.real)


def _triple(space, seed):
    return tuple(random_observable(space, seed + i) for i in range(3))


def _stacked(fam, gs):
    """The rows of fam.rows(gs), each block copied out of its reused buffer."""
    return np.concatenate([block.copy() for block in fam.rows(gs)])


# ---------------------------------------------------------------------------
# triple product average


def test_triple_product_constant_ones():
    G = build_group("symmetric:4")
    space = ProbabilitySpace.uniform(G.order)
    ones = Observable(space, np.ones(G.order))
    for g in [0, 3, 17]:
        assert triple_product_average(G, ones, ones, ones, g) == pytest.approx(1.0)


def test_triple_product_at_identity():
    G = build_group("dihedral:4")
    space = ProbabilitySpace.uniform(G.order)
    f1, f2, f3 = _triple(space, 60)
    got = triple_product_average(G, f1, f2, f3, G.identity)
    assert got == pytest.approx(np.mean(f1.values * f2.values * f3.values))


def test_triple_product_abelian_conjugation_trivial():
    G = build_group("cyclic:12")
    space = ProbabilitySpace.uniform(12)
    f1, f2, f3 = _triple(space, 61)
    for g in [1, 5, 11]:
        lrow = (np.arange(12) - g) % 12
        expect = np.mean(f1.values * f2.values[lrow] * f3.values)
        assert triple_product_average(G, f1, f2, f3, g) == pytest.approx(complex(expect))


# ---------------------------------------------------------------------------
# recurrence error and case decomposition


def test_all_ones_gives_zero_error():
    G = build_group("symmetric:4")
    space = ProbabilitySpace.uniform(G.order)
    ones = Observable(space, np.ones(G.order))
    rep = triple_recurrence_error(G, ones, ones, ones)
    assert rep.measured_total < 1e-14 and rep.passed


def test_linf_precondition_names_offender():
    G = build_group("symmetric:3")
    space = ProbabilitySpace.uniform(6)
    ok = random_observable(space, 62)
    big = Observable(space, 3.0 * np.ones(6))
    with pytest.raises(PreconditionError, match="f2"):
        triple_recurrence_error(G, ok, big, ok)


def test_triangle_decomposition_random():
    G = build_group("symmetric:4")
    space = ProbabilitySpace.uniform(G.order)
    for seed in (63, 66, 69):
        f1, f2, f3 = _triple(space, seed)
        rep = triple_recurrence_error(G, f1, f2, f3)
        assert rep.measured_total <= rep.measured_case_i + rep.measured_case_ii + 1e-9
        assert rep.decomposition_ok


def test_class_function_f3_reduces_to_mixing_error():
    # with P_c f3 = f3 (real inputs) the total error is the mixing error of
    # the left translation applied to f1*f3 and f2
    G = build_group("symmetric:4")
    space = ProbabilitySpace.uniform(G.order)
    C = conjugacy_classes(G)
    rng = np.random.default_rng(70)
    f3 = Observable(space, rng.uniform(-1, 1, C.k)[C.class_of])
    f1 = _real(space, 71)
    f2 = _real(space, 72)
    rep = triple_recurrence_error(G, f1, f2, f3)
    mix = mixing_error(cached_action(G, "left"), f1 * f3, f2)
    assert abs(rep.measured_total - mix) <= 1e-10
    assert rep.measured_case_ii < 1e-14         # f3 - P_c f3 = 0


def test_zero_projection_f3_kills_case_i():
    # f3 supported on one nontrivial class with values summing to zero
    G = build_group("symmetric:4")
    space = ProbabilitySpace.uniform(G.order)
    C = conjugacy_classes(G)
    members = np.nonzero(C.class_of == C.k - 1)[0]
    vals = np.zeros(G.order)
    vals[members[0]], vals[members[1]] = 1.0, -1.0
    f3 = Observable(space, vals)
    f1, f2 = _real(space, 73), _real(space, 74)
    case_i, case_ii = case_decomposition(G, f1, f2, f3)
    assert case_i < 1e-14


@pytest.mark.parametrize("total, case_i, case_ii, passed", [
    (0.5, 0.3, 0.3, True),
    (1.1, 0.6, 0.55, False),        # the total above its bound
    (0.5, 0.7, 0.1, False),         # case i above its bound
    (0.1, 0.1, 0.7, False),         # case ii above its bound
    (0.9, 0.1, 0.1, False),         # the total above case i + case ii
], ids=["all-hold", "total", "case-i", "case-ii", "decomposition"])
def test_report_passes_only_when_all_four_conditions_hold(total, case_i, case_ii, passed):
    """bound_total 1 sits below the cases' bounds 0.6 + 0.6, so each of the
    four conditions fails while the other three hold."""
    rep = RecurrenceReport(group="hand", D=4.0, epsilon=0.5, bound_total=1.0, bound_case_i=0.6,
                           bound_case_ii=0.6, measured_total=total, measured_case_i=case_i,
                           measured_case_ii=case_ii, mode="exact")
    assert rep.passed is passed


@pytest.mark.parametrize("mode, samples", [("exact", None), ("monte_carlo", 40)])
def test_case_decomposition_is_the_reports_two_cases(mode, samples):
    G = build_group("sl2:5")
    f1, f2, f3 = _triple(ProbabilitySpace.uniform(G.order), 76)
    rep = triple_recurrence_error(G, f1, f2, f3, mode=mode, samples=samples, seed=5)
    assert case_decomposition(G, f1, f2, f3, mode=mode, samples=samples, seed=5) == \
        (rep.measured_case_i, rep.measured_case_ii)


def test_case_decomposition_norm_facts_enforced():
    G = build_group("sl2:5")
    space = ProbabilitySpace.uniform(G.order)
    f1, f2, f3 = _triple(space, 75)
    case_i, case_ii = case_decomposition(G, f1, f2, f3)
    eps = quasirandom_eps(G)
    assert case_i <= eps + 1e-9
    assert case_ii <= math.sqrt(5 * eps) + 1e-9


def _patch_conjugation_means(monkeypatch, factor):
    """Make the recurrence read P_c f3 times factor: it reads the projections
    as orbit means."""
    import qrmix.recurrence as recurrence

    means = recurrence.orbit_means

    def scaled(a, f):
        m, orbit_of = means(a, f)
        return (m * factor if a.kind == "conjugation" else m), orbit_of

    monkeypatch.setattr(recurrence, "orbit_means", scaled)


def test_recurrence_refuses_a_projection_that_breaks_the_norm_facts(monkeypatch):
    """A conjugation projection that doubles its result breaks
    ||P_c f3||_inf <= ||f3||_inf, and triple_recurrence_error refuses it."""
    _patch_conjugation_means(monkeypatch, 2.0)
    G = build_group("sl2:5")
    space = ProbabilitySpace.uniform(G.order)
    f1, f2, _ = _triple(space, 76)
    f3 = Observable(space, np.exp(1j * conjugacy_classes(G).class_of))   # P_c f3 = f3
    with pytest.raises(PreconditionError, match="L-infinity"):
        triple_recurrence_error(G, f1, f2, f3)


@pytest.mark.parametrize("f1_weights", ["uniform", "identity"])
def test_recurrence_refuses_a_projection_residual_longer_than_f3(monkeypatch, f1_weights):
    """A conjugation projection that negates f3 keeps ||P_c f3||_inf but makes
    the residual 2 f3, and the L2 guard refuses it; a residual norm read off
    ||f3||^2 - ||P_c f3||^2 would not.  The guard measures with f3's weights:
    f3 vanishes on the identity, so f1 on the point mass there would see a
    residual of norm 0."""
    _patch_conjugation_means(monkeypatch, -1.0)
    G = build_group("sl2:5")
    space = ProbabilitySpace.uniform(G.order)
    _, f2, _ = _triple(space, 76)
    point = ProbabilitySpace(np.eye(G.order)[G.identity])
    f1 = random_observable(space if f1_weights == "uniform" else point, 76)
    class_of = conjugacy_classes(G).class_of
    f3 = Observable(space, np.exp(1j * class_of) * (class_of != class_of[G.identity]))  # P_c f3 = f3
    with pytest.raises(PreconditionError, match="L2"):
        triple_recurrence_error(G, f1, f2, f3)


def quasirandom_eps(G):
    from qrmix import quasirandom_degree
    return 1.0 / math.sqrt(quasirandom_degree(G))


def test_monte_carlo_recurrence_deterministic():
    G = build_group("sl2:5")
    space = ProbabilitySpace.uniform(G.order)
    f1, f2, f3 = _triple(space, 76)
    a = triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=64, seed=2)
    b = triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=64, seed=2)
    assert a.measured_total == b.measured_total


def _literal_triple_errors(G, f1, f2, f3, gs):
    """(total, case i, case ii) recomputed one g at a time in x-coordinates,
    with case ii's f3 - P_c f3 built explicitly."""
    pl2 = invariant_projection(cached_action(G, "left"), f2)
    pc3 = invariant_projection(cached_action(G, "conjugation"), f3)
    f3ii = f3 - pc3
    ref = complex(np.sum(f1.values * pl2.values * pc3.values * f1.space.weights))
    terms = np.array([(abs(triple_product_average(G, f1, f2, f3, g) - ref),
                       abs(triple_product_average(G, f1, f2, pc3, g) - ref),
                       abs(triple_product_average(G, f1, f2, f3ii, g))) for g in gs])
    return terms.mean(axis=0)


@pytest.mark.parametrize("desc", ["sl2:5", "psl2:7", "sl2:17"])     # sl2:17 has no dense table
@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_recurrence_errors_match_literal_recomputation(desc, mode):
    G = build_group(desc)
    f1, f2, f3 = _triple(ProbabilitySpace.uniform(G.order), 77)
    if mode == "exact":
        rep = triple_recurrence_error(G, f1, f2, f3)
        gs = range(G.order)
    else:
        rep = triple_recurrence_error(G, f1, f2, f3, mode=mode, samples=40, seed=5)
        gs = np.random.default_rng(5).integers(0, G.order, 40)     # the report's sample of g
    want = _literal_triple_errors(G, f1, f2, f3, gs)
    got = (rep.measured_total, rep.measured_case_i, rep.measured_case_ii)
    assert got == pytest.approx(tuple(want), rel=1e-12, abs=0)


def test_one_sampled_g_averages_without_warning():
    # the recurrence sample floor is 1: its averages take no one-term std
    G = build_group("sl2:5")
    f1, f2, f3 = _triple(ProbabilitySpace.uniform(G.order), 77)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=1, seed=5)
    want = _literal_triple_errors(G, f1, f2, f3, np.random.default_rng(5).integers(0, G.order, 1))
    got = (rep.measured_total, rep.measured_case_i, rep.measured_case_ii)
    assert (rep.samples, rep.seed) == (1, 5)
    assert got == pytest.approx(tuple(want), rel=1e-12, abs=0)


def test_sampled_recurrence_memory_budget():
    """A sampled recurrence on sl2:37 peaks at fewer than seven complex |G|
    arrays beyond its inputs and leaves no |G|-long array behind: uniform
    weights and one-orbit labels are broadcast scalars, conjugation shares
    the class labels, and P_l f2 and P_c f3 are read as orbit means."""
    G = build_group("sl2:37")
    n = G.order
    space = cached_action(G, "left").space
    cached_action(G, "conjugation")
    quasirandom_degree(G)               # characters and classes, kept by G
    f1, f2, f3 = _triple(space, 88)
    with traced_memory() as memory:
        triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=2, seed=3)
        left_behind, peak = memory()
    assert peak <= 7 * 16 * n
    assert left_behind < n
    w = ProbabilitySpace.uniform(n).weights
    assert w.strides == (0,) and not w.flags.writeable


@pytest.mark.parametrize("check", ["recurrence", "conjugation-mixing"])
def test_exact_pass_fits_a_core_l2(check):
    """One exact pass on sl2:13 (2184 elements, blocks of 15 rows) holds its
    two intp index rows and two complex gather buffers per block, 48 bytes a
    value: with ROW_BLOCK values a block, at most 2 MiB, a core's L2 cache."""
    G = build_group("sl2:13")
    space = cached_action(G, "left").space
    a = cached_action(G, "conjugation")
    quasirandom_degree(G)                   # characters and classes, kept by G
    list(G.translates([0], right=True))     # builds the table's transpose, held by G
    f1, f2, f3 = _triple(space, 91)
    with traced_memory() as memory:
        if check == "recurrence":
            triple_recurrence_error(G, f1, f2, f3)
        else:
            mixing_error(a, f1, f2)
        peak = memory()[1]
    assert peak <= 2 << 20


def _tiled_inputs():
    """sl2:41 (|G| = 68,880 > COLUMN_TILE, two column tiles), its cached actions,
    classes and degree, and three observables on the unit disc."""
    G = build_group("sl2:41")
    assert G.order > COLUMN_TILE
    space = cached_action(G, "left").space
    cached_action(G, "conjugation")
    quasirandom_degree(G)
    return G, _triple(space, 90)


def test_tiled_recurrence_matches_literal_recomputation():
    """Above COLUMN_TILE each g's sums add up over column tiles: the report
    equals the literal per-g recomputation on the report's sample of g."""
    G, (f1, f2, f3) = _tiled_inputs()
    rep = triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=3, seed=7)
    want = _literal_triple_errors(G, f1, f2, f3, np.random.default_rng(7).integers(0, G.order, 3))
    got = (rep.measured_total, rep.measured_case_i, rep.measured_case_ii)
    assert got == pytest.approx(tuple(want), rel=1e-12, abs=0)


def test_tiled_recurrence_memory_budget():
    """Above COLUMN_TILE a sampled recurrence holds, beside its inputs, h =
    f1 P_c f3, the two intp translate rows and three column tiles: on sl2:41,
    whose tiles are half the group, fewer than four complex |G| arrays."""
    G, (f1, f2, f3) = _tiled_inputs()
    n = G.order
    with traced_memory() as memory:
        triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=2, seed=3)
        left_behind, peak = memory()
    assert peak <= 4 * 16 * n
    assert left_behind < n


@pytest.mark.parametrize("factor, match", [(2.0, "L-infinity"), (-1.0, "L2")])
def test_tiled_recurrence_keeps_the_norm_guards(monkeypatch, factor, match):
    """The guards read P_c f3 tile by tile and still refuse a projection
    that doubles (L-infinity) or negates (L2) a class function f3."""
    G, (f1, f2, _) = _tiled_inputs()
    f3 = Observable(f1.space, np.exp(1j * conjugacy_classes(G).class_of))    # P_c f3 = f3
    _patch_conjugation_means(monkeypatch, factor)
    with pytest.raises(PreconditionError, match=match):
        triple_recurrence_error(G, f1, f2, f3, mode="monte_carlo", samples=2, seed=3)


@pytest.mark.parametrize("desc", ["sl2:5", "psl2:7"])
def test_broadcast_uniform_weights_give_bitwise_equal_results(desc, monkeypatch):
    """Every check reads the same values from broadcast uniform weights as from
    a full array of 1/n, in the same order: results equal under ==."""
    G = build_group(desc)
    n = G.order

    def results(space):
        f1, f2, f3 = _triple(space, 89)
        out = [f1.norm2, inner(space, f1, f2)]
        out += [mixing_error(ActionTable(G, space, kind), f1, f2) for kind in ("left", "right", "conjugation")]
        for mode in ("exact", "monte_carlo"):
            rep = triple_recurrence_error(G, f1, f2, f3, mode=mode, samples=40, seed=5)
            out += [rep.measured_total, rep.measured_case_i, rep.measured_case_ii]
        out.append(vdc_check(correlation_family(G, f2, f3), f1))
        with monkeypatch.context() as m:
            m.setattr(groups, "VDC_EXACT_MAX", 0)       # sampled (g, h) pairs on a small group
            out.append(vdc_check(correlation_family(G, f2, f3), f1, samples=60, seed=6))
        return out

    uniform = ProbabilitySpace.uniform(n)
    assert uniform.weights.strides == (0,)
    got, want = results(uniform), results(ProbabilitySpace(np.full(n, 1.0 / n)))
    assert want[-1].mode == "monte_carlo"
    assert got == want


@pytest.mark.parametrize("desc", WITNESS_GROUPS)
def test_isotypic_witness_nearly_attains_the_case_i_bound(desc):
    """With f3 = 1 and f2 = conj f1 the triple average is <f1, g . f1>: the
    total is the left mixing error of (f1, f1), case ii is 0, and on the
    isotypic witness case i reaches at least 0.8 of eps ||f1||_2 ||f2||_2.
    (f2 = f1 would give case i about 1e-16 on psl2:7, whose degree-3
    characters are a complex pair.)"""
    G = build_group(desc)
    space = ProbabilitySpace.uniform(G.order)
    _, values = isotypic_witness(G)
    f1, f2 = Observable(space, values), Observable(space, np.conj(values))
    rep = triple_recurrence_error(G, f1, f2, Observable(space, np.ones(G.order)))
    assert abs(rep.measured_total - mixing_error(cached_action(G, "left"), f1, f1)) <= IDENTITY_TOL
    assert rep.measured_case_ii <= IDENTITY_TOL
    ratio = rep.measured_case_i / (rep.epsilon * f1.norm2 * f2.norm2)
    assert 0.8 <= ratio <= 1.0 + PASS_TOL, ratio


# ---------------------------------------------------------------------------
# correlation family and Gram identity


def test_correlation_family_constant_inputs():
    G = build_group("symmetric:3")
    space = ProbabilitySpace.uniform(6)
    ones = Observable(space, np.ones(6))
    fam = correlation_family(G, ones, ones)
    assert np.array_equal(_stacked(fam, range(6)), np.ones((6, 6)))


def test_correlation_family_linf_bound():
    G = build_group("dihedral:4")
    space = ProbabilitySpace.uniform(8)
    f2 = random_observable(space, 80)
    f3 = random_observable(space, 81)
    fam = correlation_family(G, f2, f3)
    assert np.max(np.abs(_stacked(fam, range(8)))) <= f2.norm_inf * f3.norm_inf + 1e-15


def test_correlation_family_abelian_form():
    G = build_group("cyclic:10")
    space = ProbabilitySpace.uniform(10)
    f2 = random_observable(space, 82)
    f3 = random_observable(space, 83)
    fam = correlation_family(G, f2, f3)
    for g in range(10):
        lrow = (np.arange(10) - g) % 10
        assert np.allclose(fam.vectors[g], f2.values[lrow] * f3.values)


def _sl2_13_family_inputs():
    # |G| = 2184 = 145 * 15 + 9: the row blocks end in a short one
    G = build_group("sl2:13")
    list(G.translates([0], right=True))     # builds the table's transpose, held by G
    space = cached_action(G, "left").space
    return G, random_observable(space, 84), random_observable(space, 85)


def test_correlation_family_rows_match_triple_rows():
    G, f2, f3 = _sl2_13_family_inputs()
    E = correlation_family(G, f2, f3).vectors
    left, conj = cached_action(G, "left"), cached_action(G, "conjugation")
    for g in range(G.order):
        lrow, crow = left.inv_row(g), conj.inv_row(g)
        assert np.array_equal(E[g], f2.values[lrow] * f3.values[crow])


def test_correlation_family_peak_is_the_family():
    G, f2, f3 = _sl2_13_family_inputs()
    family_bytes = G.order * G.order * 16
    with traced_memory() as memory:
        correlation_family(G, f2, f3)
        peak = memory()[1]
    assert peak < family_bytes * 9 // 8


def test_exact_checks_hold_at_most_two_square_index_arrays():
    G, f2, f3 = _sl2_13_family_inputs()
    for kind in ("left", "right", "conjugation"):
        mixing_error(cached_action(G, kind), f2, f3)
    triple_recurrence_error(G, f2, f3, f2)
    correlation_family(G, f2, f3)
    held = [v for obj in (G, *G._action_cache.values()) for v in vars(obj).values()
            if isinstance(v, np.ndarray) and v.dtype.kind in "iu" and v.size >= G.order ** 2]
    assert len(held) <= 2      # the table and its transpose


def test_gram_identity_trivial_cases():
    G = build_group("symmetric:3")
    space = ProbabilitySpace.uniform(6)
    ones = Observable(space, np.ones(6))
    chk = gram_identity_check(G, ones, ones, 2, 4)
    assert abs(chk.lhs - 1.0) < 1e-12 and abs(chk.rhs - 1.0) < 1e-12


@pytest.mark.parametrize("desc", ["symmetric:3", "dihedral:5", "psl2:5"])
def test_gram_identity_exhaustive_real(desc):
    G = build_group(desc)
    space = ProbabilitySpace.uniform(G.order)
    f2 = _real(space, 84)
    f3 = _real(space, 85)
    worst = 0.0
    for g in range(G.order):
        for h in range(G.order):
            worst = max(worst, gram_identity_check(G, f2, f3, g, h).discrepancy)
    assert worst <= 1e-10


def test_gram_identity_h_identity_specialization():
    G = build_group("symmetric:3")
    space = ProbabilitySpace.uniform(6)
    f2 = _real(space, 86)
    f3 = _real(space, 87)
    fam = correlation_family(G, f2, f3)
    for g in range(6):
        chk = gram_identity_check(G, f2, f3, g, G.identity)
        e_g = fam.vectors[g]
        assert abs(chk.lhs - np.mean(e_g * e_g)) < 1e-12


# ---------------------------------------------------------------------------
# quantitative van der Corput


def _delta_family(G):
    n = G.order
    return VectorFamily(group=G, space=ProbabilitySpace.uniform(n),
                        vectors=math.sqrt(n) * np.eye(n, dtype=np.complex128))


@pytest.mark.parametrize("desc", ["cyclic:5", "symmetric:4", "dihedral:6", "psl2:5"])
def test_vdc_delta_family_closed_form(desc):
    G = build_group(desc)
    n = G.order
    fam = _delta_family(G)
    f = Observable(fam.space, np.ones(n))
    res = vdc_check(fam, f)
    # <e_g, e_gh> = [h = identity], so epsilon = 1/|G| up to rounding of sqrt(n)
    assert abs(res.epsilon_lhs - 1.0 / n) <= 1e-13 / n
    assert abs(res.rhs_integral - res.bound) <= 1e-10   # tight with f = 1
    assert res.passed


def test_vdc_constant_family_cauchy_schwarz_equality():
    G = build_group("cyclic:8")
    space = ProbabilitySpace.uniform(8)
    e = random_observable(space, 90)
    fam = VectorFamily(group=G, space=space, vectors=np.tile(e.values, (8, 1)))
    res = vdc_check(fam, e)      # f parallel to e: equality case
    assert abs(res.epsilon_lhs - e.norm2 ** 2) < 1e-12
    assert abs(res.rhs_integral - res.bound) < 1e-12


def test_vdc_correlation_families_pass():
    for desc in ("symmetric:4", "sl2:5"):
        G = build_group(desc)
        space = ProbabilitySpace.uniform(G.order)
        for seed in range(95, 115):
            f2 = random_observable(space, seed)
            f3 = random_observable(space, seed + 1000)
            f = random_observable(space, seed + 2000)
            assert vdc_check(correlation_family(G, f2, f3), f).passed


def test_vdc_zero_projection_engine_case():
    # the theorem's engine: f3 with P_c f3 = 0 on a perfect group
    G = build_group("sl2:5")
    space = ProbabilitySpace.uniform(G.order)
    f3 = random_observable(space, 91)
    pc = invariant_projection(cached_action(G, "conjugation"), f3)
    f3 = f3 - pc
    f2 = random_observable(space, 92)
    f = random_observable(space, 93)
    res = vdc_check(correlation_family(G, f2, f3), f)
    assert res.passed


def test_vdc_sampled_mode_deterministic():
    G = build_group("sl2:7")      # order 336 forces nothing; use samples anyway
    space = ProbabilitySpace.uniform(G.order)
    fam = correlation_family(G, random_observable(space, 94),
                             random_observable(space, 95))
    f = random_observable(space, 96)
    a = vdc_check(fam, f, samples=100, seed=4)
    b = vdc_check(fam, f, samples=100, seed=4)
    assert a.epsilon_lhs == b.epsilon_lhs and a.mode == "exact"


def test_sampled_vdc_holds_no_square_temporary():
    G = build_group("sl2:11")
    space = ProbabilitySpace.uniform(G.order)
    fam = correlation_family(G, random_observable(space, 97), random_observable(space, 98))
    f = random_observable(space, 99)
    list(G.translates([0], right=True))     # builds the table's transpose, held by G
    # a quarter of one |G| x |G| complex array, however many (g, h) pairs are sampled
    for samples in (100, 5000):
        with traced_memory() as memory:
            vdc_check(fam, f, samples=samples, seed=5)
            peak = memory()[1]
        assert peak < G.order * G.order * 4


def test_vdc_on_computed_rows_holds_no_family():
    G, f2, f3 = _sl2_13_family_inputs()
    f = random_observable(f2.space, 86)
    with traced_memory() as memory:
        vdc_check(correlation_family(G, f2, f3), f, samples=256, seed=6)
        peak = memory()[1]
    assert peak < G.order * G.order * 16 // 8


def test_sampled_vdc_reads_stored_and_computed_rows_alike():
    G = build_group("sl2:11")          # 1320 > VDC_EXACT_MAX: sampled (g, h) pairs
    space = ProbabilitySpace.uniform(G.order)
    fam = correlation_family(G, random_observable(space, 101), random_observable(space, 102))
    stored = VectorFamily(group=G, space=space, vectors=_stacked(fam, range(G.order)))
    f = random_observable(space, 103)
    assert vdc_check(fam, f, samples=300, seed=2) == vdc_check(stored, f, samples=300, seed=2)


def _literal_family_row(G, f2, f3, g):
    """f2(g^-1 x) f3(g^-1 x g) for every x, its indices one G.mul at a time."""
    gi = int(G.inv[g])
    left = [G.mul(gi, x) for x in range(G.order)]
    return f2.values[left] * f3.values[[G.mul(y, int(g)) for y in left]]


def test_correlation_family_rows_without_dense_table():
    G = build_group("sl2:17")          # |G| = 4896, above the dense limit: no table
    assert G.table is None
    space = ProbabilitySpace.uniform(G.order)
    f2, f3 = random_observable(space, 1), random_observable(space, 2)
    fam = correlation_family(G, f2, f3)
    assert fam.vectors.nbytes == 0
    gs = np.array([0, 1, 2500, G.order - 1])
    rows = _stacked(fam, gs)
    assert rows.shape == (len(gs), G.order)
    for g, row in zip(gs, rows):
        assert np.array_equal(fam.vectors[g], _literal_family_row(G, f2, f3, g))
        assert np.array_equal(row, fam.vectors[g])
    G = build_group("symmetric:3")
    space = ProbabilitySpace.uniform(6)
    f2, f3 = random_observable(space, 3), random_observable(space, 4)
    want = [_literal_family_row(G, f2, f3, g) for g in range(6)]
    assert np.array_equal(_stacked(correlation_family(G, f2, f3), range(6)), want)


@pytest.mark.parametrize("case", ["sl2:13", "sl2:17", "stored"])
def test_family_rows_stream_in_reused_blocks(case):
    if case == "sl2:13":            # 145 blocks of 15 rows and one of 9
        G, f2, f3 = _sl2_13_family_inputs()
        fam, gs = correlation_family(G, f2, f3), np.random.default_rng(9).permutation(G.order)
    elif case == "sl2:17":          # no dense table: two blocks of 6 rows and one of 2
        G = build_group("sl2:17")
        space = ProbabilitySpace.uniform(G.order)
        f2, f3 = random_observable(space, 10), random_observable(space, 11)
        fam, gs = correlation_family(G, f2, f3), np.arange(0, G.order, 350)
    else:                           # blocks of 97 rows of the stored array
        fam = _delta_family(build_group("sl2:7"))
        gs = np.random.default_rng(9).integers(0, 336, 400)
    views, blocks = [], []
    for block in fam.rows(gs):
        views.append(block)         # held, so a fresh buffer per block would not share memory
        blocks.append(block.copy())
    B = max(1, ROW_BLOCK // fam.space.size)
    assert [len(b) for b in blocks] == [len(gs[s:s + B]) for s in range(0, len(gs), B)]
    assert all(np.shares_memory(v, views[0]) for v in views)
    rows = np.concatenate(blocks)
    for g, row in zip(gs, rows):
        assert np.array_equal(row, fam.vectors[g])
    if case != "stored":            # the first and last row of every block, literally
        for i in {*range(0, len(gs), B), *range(B - 1, len(gs), B), len(gs) - 1}:
            assert np.array_equal(rows[i], _literal_family_row(G, f2, f3, gs[i]))


def test_vdc_above_dense_limit_averages_the_sampled_g():
    G = build_group("sl2:17")
    space = ProbabilitySpace.uniform(G.order)
    f2, f3, f = (random_observable(space, s) for s in (5, 6, 7))
    res = vdc_check(correlation_family(G, f2, f3), f, samples=20, seed=8)
    gs = np.random.default_rng(8).integers(0, G.order, 20)    # the g of the (g, h) pairs
    # rows as test_correlation_family_rows_without_dense_table checks them
    rows = _stacked(correlation_family(G, f2, f3), gs)
    corr = [abs(np.sum(f.values * np.conj(row))) / G.order for row in rows]
    assert res.mode == "monte_carlo" and res.passed
    assert res.rhs_integral == pytest.approx(math.fsum(corr) / 20, rel=1e-12, abs=0)


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("check", ["recurrence", "decomposition", "vdc"])
def test_sample_count_below_one_rejected(check, samples):
    G = build_group("sl2:11" if check == "vdc" else "sl2:5")   # 1320 > VDC_EXACT_MAX
    space = ProbabilitySpace.uniform(G.order)
    fs = [random_observable(space, s) for s in (98, 99, 100)]
    with pytest.raises(ValueError, match="samples must be >= 1"):
        if check == "vdc":
            vdc_check(correlation_family(G, fs[0], fs[1]), fs[2], samples=samples, seed=1)
        else:
            run = triple_recurrence_error if check == "recurrence" else case_decomposition
            run(G, *fs, mode="monte_carlo", samples=samples, seed=1)


# ---------------------------------------------------------------------------
# Bessel


def test_bessel_parseval_equality():
    n = 8
    G = build_group("cyclic:%d" % n)
    space = ProbabilitySpace.uniform(n)
    basis = [Observable(space, np.exp(2j * np.pi * k * np.arange(n) / n))
             for k in range(n)]
    f = random_observable(space, 97)
    res = bessel_check(basis, f)
    assert abs(res.sum_of_squares - res.norm_sq) < 1e-12
    assert res.passed


def test_bessel_empty_family():
    space = ProbabilitySpace.uniform(5)
    f = random_observable(space, 98)
    res = bessel_check([], f)
    assert res.sum_of_squares == 0.0 and res.passed


def test_bessel_orthogonalized_random_family():
    space = ProbabilitySpace.uniform(20)
    raw = [random_observable(space, 200 + i) for i in range(6)]
    ortho = []
    from qrmix import inner
    for v in raw:
        w = Observable(space, v.values.copy())
        for u in ortho:
            coef = inner(space, w, u) / (u.norm2 ** 2)
            w = Observable(space, w.values - coef * u.values)
        ortho.append(w)
    f = random_observable(space, 300)
    assert bessel_check(ortho, f).passed


def test_bessel_rejects_non_orthogonal():
    space = ProbabilitySpace.uniform(6)
    f = random_observable(space, 99)
    fam = [random_observable(space, 101), random_observable(space, 102)]
    with pytest.raises(PreconditionError, match="e_0, e_1"):
        bessel_check(fam, f)


# ---------------------------------------------------------------------------
# the pure inequality chain


def test_bound_chain_on_grid():
    eps = np.linspace(0.0, 1.0, 10_000)
    lhs = eps + np.sqrt(5.0 * eps)
    rhs = 4.0 * np.sqrt(eps)
    assert np.all(lhs <= rhs + 1e-12)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_bound_chain_hypothesis(eps):
    assert eps + math.sqrt(5.0 * eps) <= 4.0 * math.sqrt(eps) + 1e-12
