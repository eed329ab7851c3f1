import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrmix import (
    ActionTable,
    ActionValidationError,
    Observable,
    ProbabilitySpace,
    SpaceMismatchError,
    build_action,
    build_group,
    cached_action,
    conjugacy_classes,
    inner,
    invariant_projection,
    koopman_apply,
    random_observable,
)
from qrmix.groups import ROW_BLOCK

import oracles
from oracles import trivial_action


def _rand(space, seed):
    return random_observable(space, seed)


# ---------------------------------------------------------------------------
# probability spaces and observables


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ProbabilitySpace([0.5, 0.4])
    with pytest.raises(ValueError):
        ProbabilitySpace([-0.5, 1.5])
    ProbabilitySpace.uniform(7)           # fine


def test_observable_shape_checked():
    space = ProbabilitySpace.uniform(4)
    with pytest.raises(SpaceMismatchError):
        Observable(space, np.ones(5))


def test_inner_product_properties():
    space = ProbabilitySpace.uniform(16)
    f = _rand(space, 1)
    g = _rand(space, 2)
    ip_fg = inner(space, f, g)
    assert inner(space, g, f) == pytest.approx(np.conj(ip_fg))
    assert abs(inner(space, f, f) - f.norm2 ** 2) < 1e-14
    ones = Observable(space, np.ones(16))
    assert inner(space, f, ones) == pytest.approx(np.mean(f.values))
    two_f = Observable(space, 2.0 * f.values)
    assert inner(space, two_f, g) == pytest.approx(2.0 * ip_fg)


def test_cyclic_characters_orthonormal():
    n = 12
    space = ProbabilitySpace.uniform(n)
    xs = np.arange(n)
    chis = [Observable(space, np.exp(2j * np.pi * k * xs / n)) for k in range(n)]
    for i in range(n):
        for j in range(n):
            assert abs(inner(space, chis[i], chis[j]) - (i == j)) < 1e-12


# ---------------------------------------------------------------------------
# Koopman operator


@pytest.mark.parametrize("kind", ["left", "right", "conjugation"])
def test_koopman_unitarity_exact(kind):
    G = build_group("symmetric:4")
    a = cached_action(G, kind)
    f1, f2 = _rand(a.space, 3), _rand(a.space, 4)
    base = inner(a.space, f1, f2)
    for g in range(G.order):
        moved = inner(a.space, koopman_apply(a, g, f1), koopman_apply(a, g, f2))
        assert moved == base     # same multiset of terms, compensated sum


def test_koopman_identity_and_composition():
    G = build_group("dihedral:5")
    a = cached_action(G, "left")
    f = _rand(a.space, 5)
    assert np.array_equal(koopman_apply(a, G.identity, f).values, f.values)
    g, h = 3, 7
    lhs = koopman_apply(a, G.mul(g, h), f).values
    rhs = koopman_apply(a, g, koopman_apply(a, h, f)).values
    assert np.array_equal(lhs, rhs)


def test_left_translation_shifts_indicator():
    G = build_group("cyclic:6")
    a = cached_action(G, "left")
    delta0 = Observable(a.space, (np.arange(6) == 0).astype(float))
    shifted = koopman_apply(a, 1, delta0)
    assert np.array_equal(shifted.values, (np.arange(6) == 1).astype(float))


def test_conjugation_fixes_class_functions():
    G = build_group("symmetric:4")
    a = cached_action(G, "conjugation")
    C = conjugacy_classes(G)
    rng = np.random.default_rng(6)
    f = Observable(a.space, rng.normal(size=C.k)[C.class_of])
    for g in range(G.order):
        assert np.array_equal(koopman_apply(a, g, f).values, f.values)


# ---------------------------------------------------------------------------
# Koopman rows: one source, the group's table (dense) or its kernel (none)


@pytest.mark.parametrize("desc", ["sl2:5", "sl2:17"])      # |G| = 120 and 4896
@pytest.mark.parametrize("kind", ["left", "right", "conjugation"])
def test_inv_row_is_inverse_act_row(desc, kind):
    G = build_group(desc)
    a = cached_action(G, kind)
    for g in np.random.default_rng(15).integers(0, G.order, 6):
        assert np.array_equal(a.inv_row(g), a.act_row(int(G.inv[g])))


@pytest.mark.parametrize("desc", ["sl2:5", "sl2:17"])
def test_right_row_after_left_row_is_conjugation_row(desc):
    G = build_group(desc)
    left, right, conj = (cached_action(G, k) for k in ("left", "right", "conjugation"))
    assert left.space is right.space is conj.space
    for g in np.random.default_rng(16).integers(0, G.order, 6):
        crow = conj.inv_row(g)
        assert np.array_equal(right.inv_row(g)[left.inv_row(g)], crow)
        for x in (0, 1, G.order - 1):       # g^-1 x g
            assert crow[x] == G.mul(G.mul(int(G.inv[g]), x), int(g))


@pytest.mark.parametrize("desc, m", [("sl2:5", 1200), ("sl2:17", 31)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_translates_blocks_stack_to_translation_rows(desc, m, side):
    G = build_group(desc)                             # sl2:5 has a dense table, sl2:17 none
    gs = np.random.default_rng(17).integers(0, G.order, m)
    blocks = [b.copy() for b in G.translates(gs, right=side == "right")]   # each overwrites the last
    B = max(1, ROW_BLOCK // G.order)                  # 273 rows on sl2:5, 6 on sl2:17
    assert [len(b) for b in blocks] == [min(B, m - s) for s in range(0, m, B)]
    assert len(blocks) > 1 and len(blocks[-1]) < B    # a short last block
    rows = [G.mul_vec(int(g)) if side == "left" else G.vec_mul(None, int(g)) for g in gs]
    assert np.array_equal(np.concatenate(blocks), np.stack(rows))


@pytest.mark.parametrize("desc, m", [("sl2:5", 1200), ("sl2:17", 31)])
@pytest.mark.parametrize("kind", ["left", "right", "conjugation"])
def test_inv_rows_blocks_stack_to_inv_row(desc, m, kind):
    G = build_group(desc)                             # sl2:5 has a dense table, sl2:17 none
    a = cached_action(G, kind)
    gs = np.random.default_rng(18).integers(0, G.order, m)
    blocks = [b.copy() for b in a.inv_rows(gs)]       # a block may overwrite the last
    B = max(1, ROW_BLOCK // G.order)
    assert [len(b) for b in blocks] == [min(B, m - s) for s in range(0, m, B)]
    assert len(blocks) > 1 and len(blocks[-1]) < B    # a short last block
    assert np.array_equal(np.concatenate(blocks), np.stack([a.inv_row(g) for g in gs]))


def test_inv_rows_blocks_of_custom_action():
    G = build_group("symmetric:3")
    perms = G.backend.perms
    a = ActionTable(G, ProbabilitySpace.uniform(3), "custom", rows=perms)
    m, B = 25_000, ROW_BLOCK // 3                     # two blocks of 10922 rows, then 3156
    gs = np.random.default_rng(19).integers(0, G.order, m)
    blocks = [b.copy() for b in a.inv_rows(gs)]
    assert [len(b) for b in blocks] == [min(B, m - s) for s in range(0, m, B)]
    assert len(blocks) > 1 and len(blocks[-1]) < B    # a short last block
    assert np.array_equal(np.concatenate(blocks), perms[G.inv[gs]])
    assert all(np.array_equal(a.inv_row(g), perms[G.inv[g]]) for g in range(G.order))


def test_inv_row_of_custom_action():
    G = build_group("symmetric:3")
    a = ActionTable(G, ProbabilitySpace.uniform(3), "custom", rows=G.backend.perms)
    for g in range(G.order):
        assert np.array_equal(a.inv_row(g), a.act_row(int(G.inv[g])))
        assert np.array_equal(a.inv_row(g)[a.act_row(g)], np.arange(3))


# ---------------------------------------------------------------------------
# invariant projection


@pytest.mark.parametrize("desc,kind", [("symmetric:3", "left"),
                                       ("symmetric:3", "conjugation"),
                                       ("dihedral:4", "right"),
                                       ("sl2:5", "conjugation")])
def test_projection_equals_literal_group_average(desc, kind):
    G = build_group(desc)
    a = cached_action(G, kind)
    f = _rand(a.space, 7)
    direct = oracles.projection_by_group_average(a, f)
    assert np.max(np.abs(invariant_projection(a, f).values - direct)) < 1e-12


def test_projection_idempotent_selfadjoint_invariant():
    G = build_group("symmetric:4")
    for kind in ("left", "right", "conjugation"):
        a = cached_action(G, kind)
        f, h = _rand(a.space, 8), _rand(a.space, 9)
        pf = invariant_projection(a, f)
        ppf = invariant_projection(a, pf)
        assert np.max(np.abs(ppf.values - pf.values)) < 1e-10
        ph = invariant_projection(a, h)
        assert abs(inner(a.space, pf, h) - inner(a.space, f, ph)) < 1e-10
        for g in range(G.order):
            assert np.max(np.abs(koopman_apply(a, g, pf).values - pf.values)) < 1e-10


def test_translation_projection_is_global_mean():
    G = build_group("dihedral:6")
    f = _rand(ProbabilitySpace.uniform(G.order), 10)
    for kind in ("left", "right"):
        pf = invariant_projection(cached_action(G, kind), f)
        assert np.max(np.abs(pf.values - np.mean(f.values))) < 1e-12


def test_conjugation_projection_is_class_average():
    for desc in ("symmetric:4", "psl2:7", "sl2:17"):      # sl2:17 has no dense table
        G = build_group(desc)
        a = cached_action(G, "conjugation")
        C = conjugacy_classes(G)
        f = _rand(a.space, 11)
        pf = invariant_projection(a, f)
        for l in range(C.k):
            members = np.nonzero(C.class_of == l)[0]
            avg = np.mean(f.values[members])
            assert np.max(np.abs(pf.values[members] - avg)) < 1e-12
            # constant bit for bit: the recurrence's case i reads P_c f3(yg) as P_c f3(gy)
            assert np.all(pf.values[members] == pf.values[members[0]])


def test_orbit_labels_are_cached_read_only_and_shared_with_the_classes():
    G = build_group("psl2:7")
    labels = {kind: cached_action(G, kind).orbit_of() for kind in ("left", "right", "conjugation")}
    assert labels["conjugation"] is conjugacy_classes(G).class_of
    for kind, orbit_of in labels.items():
        assert orbit_of is cached_action(G, kind).orbit_of()
        with pytest.raises(ValueError):
            orbit_of[1] = 1
    assert labels["left"].strides == (0,) and labels["left"].tolist() == [0] * G.order


def test_mean_ergodic_orthogonality():
    # <f - P f, phi> = 0 for every invariant phi (here phi = P h)
    G = build_group("sl2:5")
    a = cached_action(G, "conjugation")
    f, h = _rand(a.space, 12), _rand(a.space, 13)
    pf = invariant_projection(a, f)
    phi = invariant_projection(a, h)
    assert abs(inner(a.space, f - pf, phi)) < 1e-10


def test_trivial_action_projection_is_identity():
    G = build_group("symmetric:3")
    a = trivial_action(G)
    f = _rand(a.space, 14)
    assert np.array_equal(invariant_projection(a, f).values, f.values)


# ---------------------------------------------------------------------------
# custom action validation


def test_custom_action_rejects_non_identity():
    G = build_group("cyclic:4")
    rows = np.tile(np.roll(np.arange(4), 1), (4, 1))
    with pytest.raises(ActionValidationError):
        ActionTable(G, ProbabilitySpace.uniform(4), "custom", rows=rows)


def test_custom_action_rejects_non_bijection():
    G = build_group("cyclic:4")
    rows = np.tile(np.arange(4), (4, 1))
    rows[2] = [0, 0, 1, 2]
    with pytest.raises(ActionValidationError):
        ActionTable(G, ProbabilitySpace.uniform(4), "custom", rows=rows)


def test_custom_action_rejects_non_associative():
    G = build_group("cyclic:4")
    rows = np.tile(np.arange(4), (4, 1))
    rows[1] = np.roll(np.arange(4), 1)      # g=1 acts, others don't: not an action
    with pytest.raises(ActionValidationError):
        ActionTable(G, ProbabilitySpace.uniform(4), "custom", rows=rows)


_FAULTS = {
    "swap": ("preserve the measure", lambda row: row.__setitem__([0, 1], [1, 0])),
    "repeat": ("act bijectively", lambda row: row.__setitem__(0, 1)),
    "out of range": ("act bijectively", lambda row: row.__setitem__(0, len(row))),
    "below range": ("act bijectively", lambda row: row.__setitem__(len(row) - 1, -1)),
}


@pytest.mark.parametrize("low, high, same_block", [(5, 9, True), (5, 250, False)])
@pytest.mark.parametrize("low_fault, high_fault", [("swap", "repeat"), ("repeat", "swap"),
                                                   ("out of range", "swap"), ("swap", "out of range"),
                                                   ("below range", "swap")])
def test_custom_action_names_the_lowest_failing_element(low, high, same_block, low_fault,
                                                        high_fault):
    # the trivial action of cyclic:300 on 300 points of distinct weights
    G = build_group("cyclic:300")
    n = G.order
    assert (low // (ROW_BLOCK // n) == high // (ROW_BLOCK // n)) == same_block
    rows = np.tile(np.arange(n), (n, 1))
    _FAULTS[low_fault][1](rows[low])
    _FAULTS[high_fault][1](rows[high])
    space = ProbabilitySpace(np.arange(1, n + 1) / (n * (n + 1) / 2))
    with pytest.raises(ActionValidationError,
                       match="^element %d does not %s$" % (low, _FAULTS[low_fault][0])):
        ActionTable(G, space, "custom", rows=rows)


def test_custom_action_accepts_genuine_action():
    G = build_group("cyclic:4")
    rows = np.stack([np.roll(np.arange(4), g) for g in range(4)])
    a = ActionTable(G, ProbabilitySpace.uniform(4), "custom", rows=rows)
    assert a.act(1, 0) == np.roll(np.arange(4), 1)[0]


def test_custom_action_keeps_int64_rows_without_a_copy():
    """An int64 table of act(g, x) is validated in blocks and then read where
    the caller keeps it: building the action allocates far less than the
    table (13.9 MB on sl2:11), which a copy would double."""
    G = build_group("sl2:11")
    rows = np.asarray(G.table, dtype=np.int64)      # the left action, g.x = gx
    with oracles.traced_memory() as memory:
        a = ActionTable(G, ProbabilitySpace.uniform(G.order), "custom", rows=rows)
        peak = memory()[1]
    assert peak < rows.nbytes // 4
    for g in (0, 5, G.order - 1):
        assert np.array_equal(a.inv_row(g), cached_action(G, "left").inv_row(g))


def test_orbit_of_custom_action_with_two_orbits():
    # symmetric:3 on six points: 0 fixed, its natural action on 1, 3, 5, its sign on 2, 4
    G = build_group("symmetric:3")
    perms = G.backend.perms
    odd = np.array([sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
                    for p in perms], dtype=bool)
    rows = np.zeros((G.order, 6), dtype=np.int64)
    rows[:, [1, 3, 5]] = np.array([1, 3, 5])[perms]
    rows[:, 2] = np.where(odd, 4, 2)
    rows[:, 4] = np.where(odd, 2, 4)
    a = ActionTable(G, ProbabilitySpace.uniform(6), "custom", rows=rows)
    expected, next_id = np.full(6, -1), 0      # orbit ids in order of least member
    for x in range(6):
        if expected[x] < 0:
            for g in range(G.order):
                expected[rows[g, x]] = next_id
            next_id += 1
    assert a.orbit_of().tolist() == expected.tolist() == [0, 1, 2, 1, 2, 1]


# ---------------------------------------------------------------------------
# random observables


def test_random_observable_deterministic():
    space = ProbabilitySpace.uniform(32)
    f = random_observable(space, 99)
    g = random_observable(space, 99)
    assert np.array_equal(f.values, g.values)
    assert not np.array_equal(f.values, random_observable(space, 100).values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(2, 64))
def test_random_observable_norms(seed, n):
    space = ProbabilitySpace.uniform(n)
    f = random_observable(space, seed)
    assert f.norm_inf <= 1.0
