import itertools
import json
import math
import warnings

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
from qrmix.groups import (DENSE_LIMIT, _Cyclic, _Mat2, _Product, average, check_samples,
                          class_count, draw, plan, row_chunks)

import oracles
from oracles import verify_group_axioms

label_arithmetic = oracles.perfbench_module("oracles")

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


@pytest.mark.parametrize("p", oracles.ODD_PRIMES_TO_101)
@pytest.mark.parametrize("projective", [False, True])
def test_sl2_pair_codes_over_full_range(p, projective):
    # every element's row and column pair codes, decoded whole: the canonical
    # matrices of determinant 1, each once, in strictly increasing (a, b, c, d)
    # order, the columns the same matrices, and every inverse an inverse
    B = _Mat2(p, projective)
    (a, b), (c, d) = (np.divmod(codes, p) for codes in B._rows)
    assert np.all((a * d - b * c) % p == 1)
    first = np.where(a > 0, a, b)
    assert np.all((first > 0) & (first <= ((p - 1) // 2 if projective else p - 1)))
    codes = ((a * p + b) * p + c) * p + d
    assert np.all(np.diff(codes) > 0)
    assert len(codes) == B.n == p * (p * p - 1) // (2 if projective else 1)
    assert np.array_equal(B._cols[0], a * p + c) and np.array_equal(B._cols[1], b * p + d)
    assert codes[B.identity] == p**3 + 1           # [[1, 0], [0, 1]]
    x = np.arange(B.n)
    assert np.all(B.mul_pairs(x, B.inv_all()) == B.identity)


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
# dense tables: int16 rows composed from the generators' kernel rows


@pytest.mark.parametrize("desc", ["cyclic:1", "cyclic:4096", "dihedral:1", "dihedral:2048",
                                  "symmetric:1", "symmetric:6", "sl2:3", "psl2:5", "sl2:13",
                                  "product:cyclic:1,cyclic:1",
                                  "product:dihedral:4,product:cyclic:3,psl2:5"])
def test_dense_table_rows_are_the_kernel_rows(desc):
    # the fill runs the kernel only at the generators: every other row of the
    # kernel is compared here, the left rows with the table and the right
    # rows with its transpose, read through the right translates
    G = build_group(desc)
    assert G.table.dtype == np.int16
    g = 0
    for block in G.translates(np.arange(G.order), right=True):
        for right in block:
            assert np.array_equal(G.table[g], G.backend.row(g)), g
            assert np.array_equal(right, G.backend.row(g, True)), g
            g += 1
    assert g == G.order


def test_dense_fill_refuses_generators_that_miss_elements():
    backend = _Cyclic(4)
    backend.generators = lambda: [2]
    with pytest.raises(GroupConstructionError, match="reach 2 of the 4 elements"):
        GroupTable(backend, "cyclic:4")


def test_dense_limit_fits_int16_indices():
    # a wider limit would wrap table entries silently
    assert DENSE_LIMIT <= np.iinfo(np.int16).max + 1


def test_from_table_keeps_a_corrupted_table_as_planted():
    table = build_group("sl2:5").table.astype(np.int64)
    table[[2, 3], [3, 9]] = table[[3, 2], [9, 3]]     # swap two products
    E = GroupTable.from_table(table)
    assert E.table.dtype == np.int16
    assert np.array_equal(E.table, table)


def test_dense_table_and_transpose_hold_two_bytes_per_entry():
    # at int32 the two tables held 8 |G|^2 bytes
    with oracles.traced_memory() as memory:
        G = build_group("sl2:13")
        build_peak = memory()[1]
        next(G.translates([G.identity], right=True))
        held = memory()[0]
    size = G.order ** 2
    assert held <= 4.5 * size
    assert build_peak <= 3 * size


def _planted_sl2_7():
    table = build_group("sl2:7").table.astype(np.int64)
    table[[2, 300], [300, 9]] = table[[300, 2], [9, 300]]   # swap two products
    return GroupTable.from_table(table, "planted sl2:7"), table


@pytest.mark.parametrize("desc", ["sl2:7", "psl2:19", "planted"])
def test_tiled_transpose_gives_the_table_columns(desc):
    # 336 rows (a short last tile of 80), 3420 rows, and a planted fault that
    # the transpose keeps as planted
    G, table = _planted_sl2_7() if desc == "planted" else (build_group(desc), None)
    assert G.order % 256 != 0
    gs = np.arange(G.order)
    for block_gs, rows in zip(row_chunks(gs, G.order), G.translates(gs, right=True)):
        assert np.array_equal(rows, G.table.T[block_gs])
        if table is not None:
            assert np.array_equal(rows, table.T[block_gs])
    assert np.array_equal(G._table_t, G.table.T)
    assert G._table_t.flags.c_contiguous and not G._table_t.flags.writeable


# ---------------------------------------------------------------------------
# product rows: outer sums of the factors' rows


@pytest.mark.parametrize("desc", ["product:sl2:5,product:sl2:5,cyclic:2",
                                  "product:cyclic:1,sl2:17", "product:sl2:17,cyclic:1"])
def test_product_rows_above_dense_limit_match_label_arithmetic(desc):
    # no dense table: every translate is a full kernel row of the product
    G = build_group(desc)
    assert G.table is None
    arith = label_arithmetic.Arithmetic(parse_descriptor(desc))
    E = arith.parse_all(G.labels)
    codes = arith.code(E)
    xs = np.arange(G.order)
    gs = np.random.default_rng(18).integers(0, G.order, 3)
    # each block is a view of a buffer that the next block overwrites
    left = np.concatenate([block.copy() for block in G.translates(gs)])
    right = np.concatenate([block.copy() for block in G.translates(gs, right=True)])
    for g, lrow, rrow in zip(gs, left, right):
        assert np.array_equal(lrow, G.mul_pairs(np.full(G.order, g), xs))
        assert np.array_equal(rrow, G.mul_pairs(xs, np.full(G.order, g)))
        assert np.array_equal(codes[lrow], arith.code(arith.mul(E[g], E)))
        assert np.array_equal(codes[rrow], arith.code(arith.mul(E, E[g])))


def test_product_full_rows_skip_the_index_split(monkeypatch):
    # the k = 162 product of the benchmark: its full rows never split the
    # |G| indices into factor indices, and land in out without a copy
    G = build_group("product:sl2:5,product:sl2:5,cyclic:2")
    xs = np.arange(G.order)
    g = 12345
    want_left = G.mul_pairs(np.full(G.order, g), xs)
    want_right = G.mul_pairs(xs, np.full(G.order, g))

    def refuse(self, idx):
        raise AssertionError("full row split into factor indices")

    monkeypatch.setattr(_Product, "_split", refuse)
    assert np.array_equal(G.mul_vec(g), want_left)
    assert np.array_equal(G.vec_mul(None, g), want_right)
    out = np.empty(G.order, dtype=np.intp)
    assert G.backend.row(g, False, out) is out
    assert np.array_equal(out, want_left)
    assert G.backend.row(g, True, out) is out
    assert np.array_equal(out, want_right)


# ---------------------------------------------------------------------------
# the two kernels: a full row (backend.row) and elementwise pairs (mul_pairs)


@pytest.mark.parametrize("desc", ["cyclic:5000", "dihedral:2500", "symmetric:7", "psl2:23",
                                  "product:cyclic:2,sl2:13"])
def test_index_arrays_without_dense_table_match_full_rows_and_pairs(desc):
    # an index array goes through mul_pairs, a full row through backend.row
    G = build_group(desc)
    assert G.table is None
    rng = np.random.default_rng(20)
    js = rng.integers(0, G.order, 300)
    out = np.empty(G.order, dtype=np.intp)
    for g in rng.integers(0, G.order, 3):
        gs = np.full(len(js), g)
        left, right = G.mul_vec(g), G.vec_mul(None, g)
        assert np.array_equal(G.mul_vec(g, js), left[js])
        assert np.array_equal(G.mul_vec(g, js), G.mul_pairs(gs, js))
        assert np.array_equal(G.vec_mul(js, g), right[js])
        assert np.array_equal(G.vec_mul(js, g), G.mul_pairs(js, gs))
        for side, want in ((False, left), (True, right)):
            assert G.backend.row(g, side, out) is out
            assert np.array_equal(out, want)


def test_explicit_backend_rows_land_in_out():
    table = build_group("sl2:5").table.astype(np.int64)
    E = GroupTable.from_table(table)
    out = np.empty(E.order, dtype=np.intp)
    for g in (0, 7, 119):
        for right, want in ((False, table[g]), (True, table[:, g])):
            assert E.backend.row(g, right, out) is out
            assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# conjugacy classes


@pytest.mark.parametrize("desc", ["symmetric:3", "symmetric:4", "dihedral:4",
                                  "sl2:5", "product:cyclic:2,symmetric:3",
                                  "cyclic:1", "dihedral:1", "psl2:7"])
def test_conjugacy_partition_matches_brute_force(desc):
    G = build_group(desc)
    C = conjugacy_classes(G)
    got = frozenset(
        frozenset(np.nonzero(C.class_of == l)[0].tolist()) for l in range(C.k))
    assert got == oracles.brute_force_conjugacy(G)


def test_class_equation_and_ordering():
    for desc in ["symmetric:4", "sl2:5", "psl2:5", "dihedral:6", "psl2:101", "symmetric:8"]:
        G = build_group(desc)
        C = conjugacy_classes(G)
        assert sum(C.class_sizes) == G.order
        assert all(G.order % s == 0 for s in C.class_sizes)
        assert np.bincount(C.class_of).tolist() == C.class_sizes
        keys = list(zip(C.class_sizes, C.representatives))
        assert all(a < b for a, b in zip(keys, keys[1:]))      # strictly ascending
        # the first index of each class in class_of is its least member
        assert np.unique(C.class_of, return_index=True)[1].tolist() == C.representatives
        assert C.class_of[G.identity] == 0 and C.class_sizes[0] == 1
        # the classes are found on int32 labels; class_of is int64 and read-only
        assert C.class_of.dtype == np.int64 and not C.class_of.flags.writeable


def test_abelian_groups_have_singleton_classes():
    G = build_group("cyclic:12")
    C = conjugacy_classes(G)
    assert C.k == 12 and set(C.class_sizes) == {1}


@pytest.mark.parametrize("desc", ["cyclic:1", "cyclic:9", "dihedral:1", "dihedral:2", "dihedral:7",
                                  "dihedral:10", "symmetric:1", "symmetric:6", "sl2:3", "sl2:11",
                                  "psl2:3", "psl2:11", "product:sl2:5,symmetric:4",
                                  "product:dihedral:4,product:cyclic:3,psl2:5",
                                  "product:sl2:5,product:sl2:5,cyclic:2",
                                  "sl2:101"])   # the largest order, 1,030,200
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
                                 "product:cyclic:2,cyclic:3,",
                                 # primes far above 101: refused before any primality test
                                 "sl2:2305843009213693951",
                                 "psl2:618970019642690137449562111"])
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
    # draw's sample: the g, then for vdc the h, from one generator
    drawn = draw(experiment, "g", order, 200, 7, exact_max_order)
    if expected is None:
        assert drawn is None
    else:
        rng = np.random.default_rng(7)
        want = [rng.integers(0, order, 200) for _ in range(2 if experiment == "vdc" else 1)]
        got = drawn if experiment == "vdc" else (drawn,)
        assert len(got) == len(want) and all(map(np.array_equal, got, want))


@pytest.mark.parametrize("experiment, order, exact_max_order, samples, seed, message", [
    ("vdc", 513, 3000, None, 0, "vdc on g (|G| = 513) samples g, and needs samples"),
    ("recurrence", 3001, 3000, 200, None, "recurrence on g (|G| = 3001) samples g"),
    ("mixing", 3001, 3000, 29, 0, "samples must be >= 30"),
])
def test_plan_refusals_name_the_input(experiment, order, exact_max_order, samples, seed, message):
    for refuse in (plan, draw):
        with pytest.raises(ValueError) as exc:
            refuse(experiment, "g", order, samples, seed, exact_max_order)
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


def test_average_is_the_fsum_mean_and_its_normal_half_width():
    x = np.abs(np.exp(0.7j * np.arange(40)) * np.linspace(0.1, 2.0, 40) + 0.3 - 0.1j)
    mean, half = average(x)
    assert mean == math.fsum(x) / len(x)
    assert half == 2.58 * np.std(x, ddof=1) / math.sqrt(len(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert average(x[:1]) == (x[0], None)      # no one-term std
