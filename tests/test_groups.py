import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrmix import (
    GroupConstructionError,
    GroupTable,
    build_group,
    conjugacy_classes,
    parse_descriptor,
)
from qrmix.groups import check_samples, class_count, plan

import oracles
from oracles import verify_group_axioms

SMALL_DESCS = ["cyclic:1", "cyclic:7", "dihedral:4", "symmetric:3", "symmetric:4",
               "psl2:5", "sl2:5", "product:cyclic:2,symmetric:3"]


# ---------------------------------------------------------------------------
# orders against brute-force enumeration


def test_sl2_5_order_matches_exhaustive_count():
    assert build_group("sl2:5").order == len(oracles.sl2_elements(5))


def test_psl2_5_order_matches_quotient_count():
    assert build_group("psl2:5").order == oracles.psl2_order(5)


def test_sl2_7_order_matches_exhaustive_count():
    assert build_group("sl2:7").order == len(oracles.sl2_elements(7))


def test_symmetric_orders():
    for n in range(1, 6):
        assert build_group("symmetric:%d" % n).order == len(
            list(itertools.permutations(range(n))))


def test_dihedral_and_cyclic_orders():
    assert build_group("cyclic:9").order == 9
    assert build_group("dihedral:6").order == 12


def test_product_order_multiplies():
    G = build_group("product:cyclic:3,dihedral:4")
    assert G.order == 3 * 8
    H = build_group("product:cyclic:2,product:cyclic:3,cyclic:5")
    assert H.order == 30


# ---------------------------------------------------------------------------
# multiplication against independent composition


def test_symmetric_multiplication_matches_tuple_composition():
    G = build_group("symmetric:4")
    perms = list(itertools.permutations(range(4)))
    label_of = {p: i for i, p in enumerate(perms)}
    rng = np.random.default_rng(2)
    for i, j in rng.integers(0, G.order, (200, 2)):
        expect = label_of[oracles.compose_perms(perms[i], perms[j])]
        assert G.mul(int(i), int(j)) == expect


def test_sl2_multiplication_matches_matrix_product():
    G = build_group("sl2:5")
    # labels are "[[a,b],[c,d]]"; parse back and multiply mod 5
    label_to_idx = {G.label(i): i for i in range(G.order)}
    rng = np.random.default_rng(3)
    for i, j in rng.integers(0, G.order, (200, 2)):
        A = np.array(json.loads(G.label(int(i))))
        B = np.array(json.loads(G.label(int(j))))
        C = (A @ B) % 5
        lab = "[[%d,%d],[%d,%d]]" % (C[0, 0], C[0, 1], C[1, 0], C[1, 1])
        assert G.mul(int(i), int(j)) == label_to_idx[lab]


@pytest.mark.parametrize("desc", ["sl2:3", "psl2:3", "sl2:17", "psl2:17", "sl2:61",
                                  "sl2:67", "psl2:67", "psl2:101"])
def test_sl2_rows_match_matrix_products(desc):
    # orders above the dense-table limit (4896 for sl2:17) run the backend
    G = build_group(desc)
    p = int(desc.split(":")[1])

    def mats(idx):
        return np.array([json.loads(G.label(int(i)).lstrip("±")) for i in idx])

    def same(got, want):
        ok = np.all(mats(got) == want % p, axis=(1, 2))
        if desc.startswith("psl2"):
            ok |= np.all(mats(got) == -want % p, axis=(1, 2))
        return ok.all()

    rng = np.random.default_rng(4)
    xs, ys = rng.integers(0, G.order, (2, 60))
    X, Y = mats(xs), mats(ys)
    for g in rng.integers(0, G.order, 4):
        M = mats([g])[0]
        assert same(G.mul_vec(g, xs), M @ X) and same(G.vec_mul(xs, g), X @ M)
    assert same(G.mul_pairs(xs, ys), X @ Y)
    adjugate = np.stack([np.stack([X[:, 1, 1], -X[:, 0, 1]], 1),
                         np.stack([-X[:, 1, 0], X[:, 0, 0]], 1)], 1)
    assert same(G.inv[xs], adjugate)


@pytest.mark.parametrize("desc", ["sl2:3", "psl2:3", "sl2:5", "psl2:5", "sl2:13", "psl2:13",
                                  "psl2:101"])
def test_sl2_labels_in_lex_order(desc):
    # the canonical matrices, each once, in strictly increasing (a, b, c, d)
    # order: this pins every element's index
    G = build_group(desc)
    p = int(desc.split(":")[1])
    assert G.order == p * (p * p - 1) // (2 if desc.startswith("psl2") else 1)
    idx = range(G.order) if G.order <= 5000 else np.sort(
        np.random.default_rng(5).choice(G.order, 3000, replace=False))
    M = np.array([json.loads(G.label(int(i)).lstrip("±")) for i in idx]).reshape(-1, 4)
    assert np.all((M >= 0) & (M < p))
    assert np.all((M[:, 0] * M[:, 3] - M[:, 1] * M[:, 2]) % p == 1)
    if desc.startswith("psl2"):
        first = np.where(M[:, 0] > 0, M[:, 0], M[:, 1])
        assert np.all(first <= (p - 1) // 2)
    codes = ((M[:, 0] * p + M[:, 1]) * p + M[:, 2]) * p + M[:, 3]
    assert np.all(np.diff(codes) > 0)


def test_dihedral_relations():
    G = build_group("dihedral:5")
    r, s = 1, 5   # encoding: index a*n + k is s^a r^k
    assert oracles.element_order(G, r) == 5
    assert oracles.element_order(G, s) == 2
    # s r s^-1 = r^-1
    conj = G.mul(G.mul(s, r), int(G.inv[s]))
    assert conj == int(G.inv[r])


def test_inverses_multiply_to_identity():
    for desc in SMALL_DESCS:
        G = build_group(desc)
        xs = np.arange(G.order, dtype=np.int64)
        assert np.all(G.mul_pairs(xs, G.inv) == G.identity)
        assert np.all(G.mul_pairs(G.inv, xs) == G.identity)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["symmetric:4", "dihedral:6", "sl2:5"]),
       st.integers(0, 10**9), st.integers(0, 10**9))
def test_inverse_antihomomorphism(desc, a, b):
    G = build_group(desc)
    g, h = a % G.order, b % G.order
    assert int(G.inv[G.mul(g, h)]) == G.mul(int(G.inv[h]), int(G.inv[g]))


# ---------------------------------------------------------------------------
# conjugacy classes


@pytest.mark.parametrize("desc", ["symmetric:3", "symmetric:4", "dihedral:4",
                                  "sl2:5", "product:cyclic:2,symmetric:3"])
def test_conjugacy_partition_matches_brute_force(desc):
    G = build_group(desc)
    C = conjugacy_classes(G)
    got = frozenset(
        frozenset(np.nonzero(C.class_of == l)[0].tolist()) for l in range(C.k))
    assert got == oracles.brute_force_conjugacy(G)


def test_class_equation_and_ordering():
    for desc in ["symmetric:4", "sl2:5", "psl2:5", "dihedral:6"]:
        G = build_group(desc)
        C = conjugacy_classes(G)
        assert sum(C.class_sizes) == G.order
        assert all(G.order % s == 0 for s in C.class_sizes)
        assert C.class_sizes == sorted(C.class_sizes) or all(
            (C.class_sizes[i], C.representatives[i]) <= (C.class_sizes[i + 1],
                                                         C.representatives[i + 1])
            for i in range(C.k - 1))
        assert C.class_of[G.identity] == 0 and C.class_sizes[0] == 1


def test_abelian_groups_have_singleton_classes():
    G = build_group("cyclic:12")
    C = conjugacy_classes(G)
    assert C.k == 12 and set(C.class_sizes) == {1}


@pytest.mark.parametrize("desc", ["cyclic:1", "cyclic:9", "dihedral:1", "dihedral:2", "dihedral:7",
                                  "dihedral:10", "symmetric:1", "symmetric:6", "sl2:3", "sl2:11",
                                  "psl2:3", "psl2:11", "product:sl2:5,symmetric:4",
                                  "product:dihedral:4,product:cyclic:3,psl2:5"])
def test_class_count_closed_forms_match_conjugacy_classes(desc):
    assert class_count(desc) == conjugacy_classes(build_group(desc)).k


def test_generator_bfs_conjugacy_consistent_with_random_conjugations():
    # order 4896 > dense limit, so this exercises the generator-BFS path
    G = build_group("sl2:17")
    assert G.table is None
    C = conjugacy_classes(G)
    assert sum(C.class_sizes) == G.order
    rng = np.random.default_rng(5)
    xs = rng.integers(0, G.order, 300)
    hs = rng.integers(0, G.order, 300)
    conj = G.mul_pairs(G.mul_pairs(hs, xs), G.inv[hs])
    assert np.all(C.class_of[conj] == C.class_of[xs])


def test_from_table_group_has_few_generators_and_the_same_classes():
    G = build_group("sl2:13")
    E = GroupTable.from_table(G.table)
    assert len(E.generators()) <= 10 < G.order
    CE, CG = conjugacy_classes(E), conjugacy_classes(G)
    assert np.array_equal(CE.class_of, CG.class_of)
    assert (CE.class_sizes, CE.representatives) == (CG.class_sizes, CG.representatives)


# ---------------------------------------------------------------------------
# descriptor grammar


def test_parse_descriptor_roundtrip():
    assert parse_descriptor("cyclic:8") == ("cyclic", 8)
    assert parse_descriptor("product:cyclic:2,sl2:5") == \
        ("product", ("cyclic", 2), ("sl2", 5))
    nested = parse_descriptor("product:product:cyclic:2,cyclic:3,symmetric:3")
    assert nested == ("product", ("product", ("cyclic", 2), ("cyclic", 3)),
                      ("symmetric", 3))


@pytest.mark.parametrize("bad", ["", "cyclic", "cyclic:", "frobnitz:5",
                                 "symmetric:9", "sl2:2", "sl2:9", "sl2:103",
                                 "psl2:4", "cyclic:5junk", "product:cyclic:2",
                                 "product:cyclic:2,cyclic:3,"])
def test_bad_descriptors_rejected(bad):
    with pytest.raises(GroupConstructionError):
        build_group(bad)


def test_order_cap_enforced():
    with pytest.raises(GroupConstructionError):
        build_group("product:symmetric:8,symmetric:8")


# ---------------------------------------------------------------------------
# axiom verification, including planted faults


def test_axioms_pass_on_families():
    for desc in SMALL_DESCS + ["sl2:17"]:
        report = verify_group_axioms(build_group(desc))
        assert report.all_ok, desc


def test_planted_associativity_fault_detected():
    G = build_group("cyclic:6")
    table = G.table.copy()
    table[2, 3] = (table[2, 3] + 1) % 6   # corrupt one product
    report = verify_group_axioms(GroupTable.from_table(table))
    assert not report.all_ok
    bad = [c for c in report.checks if not c.ok]
    assert bad and all(c.witness is not None for c in bad)


def test_planted_bijectivity_fault_detected():
    G = build_group("cyclic:5")
    table = G.table.copy()
    table[3] = table[2]                   # row 3 no longer a bijection image
    report = verify_group_axioms(GroupTable.from_table(table))
    assert not report.all_ok
    assert not report["translation_bijectivity"].ok \
        or not report["associativity"].ok or not report["inverses"].ok


def test_labels_are_distinct():
    for desc in ["symmetric:3", "dihedral:4", "sl2:5", "psl2:5",
                 "product:cyclic:2,cyclic:3"]:
        G = build_group(desc)
        assert len(set(G.labels)) == G.order


# ---------------------------------------------------------------------------
# sampling plan: None means every g, a count means that many sampled g


@pytest.mark.parametrize("experiment, order, exact_max_order, expected", [
    ("vdc", 512, 3000, None), ("vdc", 513, 3000, 200), ("vdc", 4096, 3000, 200),
    ("mixing", 3000, 3000, None), ("mixing", 3001, 3000, 200),
    ("recurrence", 3000, 3000, None), ("recurrence", 3001, 3000, 200),
    ("mixing", 4096, 6000, None), ("mixing", 4097, 3000, 200), ("mixing", 4097, 6000, None),
    ("recurrence", 4097, 6000, None), ("vdc", 4097, 3000, 200), ("vdc", 2_000_000, 3000, 200),
])
def test_plan_edges(experiment, order, exact_max_order, expected):
    assert plan(experiment, "g", order, 200, 0, exact_max_order) == expected


@pytest.mark.parametrize("experiment, order, exact_max_order, samples, seed, message", [
    ("vdc", 513, 3000, None, 0, "vdc on g (|G| = 513) samples g, and needs samples"),
    ("recurrence", 3001, 3000, 200, None, "recurrence on g (|G| = 3001) samples g"),
    ("mixing", 3001, 3000, 29, 0, "samples must be >= 30"),
])
def test_plan_refusals_name_the_input(experiment, order, exact_max_order, samples, seed, message):
    with pytest.raises(ValueError) as exc:
        plan(experiment, "g", order, samples, seed, exact_max_order)
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("experiment, samples, ok", [
    ("mixing", 29, False), ("mixing", 30, True), ("recurrence", 0, False),
    ("recurrence", 1, True), ("vdc", 0, False), ("vdc", 1, True),
    ("mixing", 10**6, True), ("recurrence", 10**6 + 1, False), ("vdc", 10**12, False),
])
def test_check_samples_floor_and_ceiling(experiment, samples, ok):
    if ok:
        assert check_samples(experiment, samples) == samples
    else:
        with pytest.raises(ValueError, match="samples must be >= "):
            check_samples(experiment, samples)
