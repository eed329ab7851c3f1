import math

import numpy as np
import pytest

from qrmix import (
    CharacterError,
    build_group,
    character_degrees,
    class_constants,
    conjugacy_classes,
    group_exponent,
    quasirandom_degree,
)
from qrmix import GroupTable, characters
from qrmix.groups import ConjugacyData, _is_prime, parse_descriptor

import oracles

closed_forms = oracles.perfbench_module("oracles")


# ---------------------------------------------------------------------------
# class algebra structure constants


@pytest.mark.parametrize("desc", ["symmetric:3", "symmetric:4", "dihedral:4", "sl2:5"])
def test_class_constants_match_brute_force(desc):
    G = build_group(desc)
    got = class_constants(G).a
    assert np.array_equal(got, oracles.brute_force_class_constants(G))


def _dixon_degrees(G):
    """Dixon's split on G itself, a product too, of which character_degrees
    splits only the factors."""
    return characters._dixon_degrees(G, conjugacy_classes(G))


def _rows_the_split_reads(G):
    """Kernel rows Dixon's split of G builds past the conjugacy classes:
    one per class matrix."""
    conjugacy_classes(G)
    calls = []
    for name in ("mul_vec", "vec_mul"):
        method = getattr(G, name)
        setattr(G, name, lambda *a, method=method, **kw: calls.append(a) or method(*a, **kw))
    _dixon_degrees(G)
    return len(calls)


def test_degrees_build_only_the_class_matrices_the_split_reads():
    # symmetric:8 has k = 22 classes; its split is done after a few matrices,
    # each built from one kernel row
    G = build_group("symmetric:8")
    assert 0 < _rows_the_split_reads(G) < conjugacy_classes(G).k == 22


@pytest.mark.parametrize("desc, most", [
    ("psl2:101", 10), ("sl2:37", 12), ("product:sl2:5,product:sl2:5,cyclic:2", 14),
    ("cyclic:60", 1)])
def test_split_reads_one_class_of_each_size_first(desc, most):
    # read in size order, psl2:101's 25 classes of size p(p + 1) come before
    # the first split-torus class: 29 matrices, against 26 for sl2:37 and 24
    # for the k = 162 product.  On cyclic:60 every class has size 1, and the
    # first after the identity, a generator's, splits everything
    assert 0 < _rows_the_split_reads(build_group(desc)) <= most


def test_class_constants_counting_identity():
    # summing a[i, j, l] over j counts every x in C_i once (y = x^-1 z)
    for desc in ["symmetric:4", "sl2:5", "dihedral:6"]:
        G = build_group(desc)
        C = conjugacy_classes(G)
        a = class_constants(G).a
        sums = a.sum(axis=1)    # [i, l]
        expect = np.tile(np.array(C.class_sizes)[:, None], (1, C.k))
        assert np.array_equal(sums, expect)


# ---------------------------------------------------------------------------
# degree multisets


@pytest.mark.parametrize("desc", ["symmetric:3", "symmetric:4", "dihedral:4",
                                  "psl2:5", "sl2:5",
                                  "product:cyclic:2,symmetric:3"])
def test_degrees_match_eigen_multiplicity_oracle(desc):
    G = build_group(desc)
    assert tuple(sorted(character_degrees(G).degrees)) == \
        oracles.degrees_by_eigen_multiplicity(G)


def test_degree_invariants_across_suite():
    for desc in ["cyclic:12", "dihedral:6", "symmetric:5", "sl2:7", "psl2:7"]:
        G = build_group(desc)
        deg = character_degrees(G).degrees
        assert sum(d * d for d in deg) == G.order
        assert len(deg) == conjugacy_classes(G).k
        assert deg[0] == 1
        assert all(G.order % d == 0 for d in deg)   # degree divides order
        assert list(deg) == sorted(deg)


_FULL_RANGE = ([pytest.param("sl2:%d" % p, marks=pytest.mark.slow) if p > 61 else "sl2:%d" % p
                for p in oracles.ODD_PRIMES_TO_101]
               + ["psl2:%d" % p for p in oracles.ODD_PRIMES_TO_101]
               + ["symmetric:%d" % n for n in range(1, 9)])


@pytest.mark.parametrize("desc", _FULL_RANGE)
def test_degrees_match_closed_form_over_full_range(desc):
    # closed forms: Fulton-Harris for SL(2,p) and PSL(2,p), hook lengths for S_n
    want = closed_forms.degrees(closed_forms.parse(desc))
    G = build_group(desc)
    assert list(character_degrees(G).degrees) == want
    assert quasirandom_degree(G) == (want[1] if len(want) > 1 else math.inf)


@pytest.mark.parametrize("n", [9, 200])
def test_dihedral_degrees_match_closed_form(n):
    assert character_degrees(build_group("dihedral:%d" % n)).degrees == oracles.dihedral_degrees(n)


def test_split_refuses_matrix_that_does_not_split():
    # x^2 - 2, the characteristic polynomial, has no root mod 3 or mod 5.  Over
    # F_5 the first power, at a = 0, is A = 2I: a scalar, but not 0 or +-1
    M = np.array([[0, 2], [1, 0]], dtype=np.int64)
    assert np.array_equal(characters._matpow(M, 2, 5), 2 * np.eye(2, dtype=np.int64))
    for q in (3, 5):
        with pytest.raises(CharacterError, match="does not split"):
            characters._split_spaces([M], q)


_CUT = characters.INT64_INNER_MAX


@pytest.mark.parametrize("q, k", [(421, 162), (3_194_017, 101), (2**27 - 39, 101)]
                         + [(q, k) for q in (421, 1_030_201) for k in (1, 2, _CUT, _CUT + 1)])
def test_mulmod_matches_exact_integer_product(q, k):
    # (421, 162) is the k = 162 product's prime and class count, (3194017, 101)
    # sl2:97's: both one float64 product.  (2^27 - 39, 101) has
    # 2^53 <= k (q - 1)^2 < 2^63 and takes the int64 product.  Inner sizes up to
    # INT64_INNER_MAX take it too, and one more goes back to float64, at the
    # product's prime and psl2:101's.  All-(q - 1) matrices give the largest
    # sums; the stacked pair is _split_step's two shifts
    rng = np.random.default_rng(q)
    for A, B in [(rng.integers(0, q, (4, k)), rng.integers(0, q, (k, 5))),
                 (np.full((3, k), q - 1), np.full((k, 2), q - 1)),
                 (rng.integers(0, q, (2, 3, k)), rng.integers(0, q, (2, k, 3)))]:
        want = (A.astype(object) @ B.astype(object)) % q
        got = characters._mulmod(A, B, q)
        assert got.dtype == np.int64 and np.array_equal(got, want.astype(np.int64))


def _invertible(rng, p, d):
    """A random invertible d x d matrix over F_p and its inverse."""
    S = rng.integers(0, p, (d, d))
    while len(characters._rref(S, p)[1]) < d:
        S = rng.integers(0, p, (d, d))
    return S, characters._rref(np.hstack([S, np.eye(d, dtype=np.int64)]), p)[0][:, d:]


@pytest.mark.parametrize("q, shape, rank, zero_col", [
    (421, (12, 9), 4, 2), (421, (5, 12), 3, 0), (421, (9, 9), 9, None),
    (7, (10, 10), 6, 9), (3_194_017, (8, 8), 5, 4), (421, (6, 7), 0, None),
    (134_217_757, (24, 30), 20, 5)])
def test_rref_and_nullspace_of_rank_deficient_matrices(q, shape, rank, zero_col):
    # A = X Y over F_q has rank <= rank; a zero column of Y is a free column.
    # Above 2^27 each lazy update moves an entry by up to (q - 1)^2 >= 2^54, and
    # 20 of them must not drift out of int64
    rng = np.random.default_rng(rank * 1000 + shape[0])
    Y = rng.integers(0, q, (rank, shape[1]))
    if zero_col is not None:
        Y[:, zero_col] = 0
    A = rng.integers(0, q, (shape[0], rank)) @ Y % q
    want, want_pivots = oracles.rref_mod_q(A, q)
    for R, pivots in [characters._rref(A, q), characters._rref(A, q, len(want_pivots))]:
        assert pivots == want_pivots and R.tolist() == want
    assert pivots == sorted(set(pivots)) and np.array_equal(R[:, pivots], np.eye(len(pivots)))
    assert all(not R[i, :c].any() for i, c in enumerate(pivots))
    # the split by projector images: M = S^-1 D S over F_421, D with distinct
    # eigenvalues, has S's rows as left eigenvectors, the column eigenvectors
    # of M^T, each found scaled to a leading 1
    p, d = 421, 5
    S, S_inv = _invertible(rng, p, d)
    M = S_inv @ np.diag(rng.choice(p, d, replace=False)) % p @ S % p
    lead = S[np.arange(d), np.argmax(S != 0, axis=1)]
    want = S * np.array([pow(int(x), p - 2, p) for x in lead])[:, None] % p
    got = characters._split_spaces([M.T], p)
    assert sorted(map(tuple, np.array(got).tolist())) == sorted(map(tuple, want.tolist()))
    # a Jordan block has A^3 != A at a = 0: A = [[1, 210], [0, 1]]
    with pytest.raises(CharacterError, match="does not split"):
        characters._split_spaces([np.array([[1, 1], [0, 1]])], p)


_REPEATED = [(421, (3, 2, 1, 1)), (7, (7, 1)), (7, (3, 3, 1, 1))]


def _repeated_eigenvalues(p, mults):
    """M = S^-1 D S over F_p, D with eigenvalue multiplicities mults, and the
    rref of each eigenspace of c -> c M (the span of S's rows with one
    eigenvalue), sorted."""
    rng = np.random.default_rng(sum(mults) * p)
    d = sum(mults)
    S, S_inv = _invertible(rng, p, d)
    which = np.repeat(np.arange(len(mults)), mults)
    values = rng.choice(p, len(mults), replace=False)
    M = S_inv @ np.diag(values[which]) % p @ S % p
    return M, sorted(oracles.rref_mod_q(S[which == i], p)[0] for i in range(len(mults)))


@pytest.mark.parametrize("p, mults", _REPEATED)
def test_local_split_of_repeated_eigenvalues(p, mults):
    # M acts on rows by c -> c M: each piece must be an eigenspace's rref.
    # With d >= p the images' ranks are not read off the traces mod p: at
    # (7, 1) a trace-derived rank of 7 reads 0, and that eigenspace would be lost
    M, want = _repeated_eigenvalues(p, mults)
    got = characters._split_local(M, p)
    assert sorted(len(Y) for Y in got) == sorted(mults)
    assert sorted(Y.tolist() for Y in got) == want


@pytest.mark.parametrize("desc, most", [("psl2:101", 70),
                                        ("product:sl2:5,product:sl2:5,cyclic:2", 175)])
def test_split_children_resume_the_shift_search(desc, most, monkeypatch):
    # every shift up to the one that split a space is scalar on its pieces, so
    # they resume the search after it.  Searching from a = 0 for every piece
    # takes 102 stacked powers on psl2:101 and 235 on the k = 162 product
    powers, matpow = [], characters._matpow
    monkeypatch.setattr(characters, "_matpow", lambda *a: powers.append(a) or matpow(*a))
    _dixon_degrees(build_group(desc))
    assert 0 < len(powers) <= most
    # the pieces, and their order, are those of a search from a = 0
    resumed = [characters._split_local(_repeated_eigenvalues(*case)[0], case[0])
               for case in _REPEATED]
    step = characters._split_step
    monkeypatch.setattr(characters, "_split_step", lambda S, q, start: step(S, q, 0))
    for (p, mults), got in zip(_REPEATED, resumed):
        want = characters._split_local(_repeated_eigenvalues(p, mults)[0], p)
        assert [Y.tolist() for Y in got] == [Y.tolist() for Y in want]


@pytest.mark.parametrize("desc", ["product:sl2:5,product:sl2:5,cyclic:2", "sl2:37"])
def test_split_lines_are_eigenvectors_of_every_class_matrix(desc, monkeypatch):
    # the split reads only some class matrices; each of its k distinct lines
    # must be a column eigenvector of all k.  Every space is split in its own
    # coordinates, so each elimination is of a square d x d matrix, never d x k
    G = build_group(desc)
    C = conjugacy_classes(G)
    q = characters._dixon_prime(group_exponent(G, C), G.order)
    shapes, lines = [], []      # of every matrix _rref eliminates; the lines split off
    rref, split = characters._rref, characters._split_spaces
    monkeypatch.setattr(characters, "_rref", lambda A, *a: shapes.append(A.shape) or rref(A, *a))
    monkeypatch.setattr(characters, "_split_spaces",
                        lambda mats, q: lines.extend(split(mats, q)) or lines)
    _dixon_degrees(G)
    V = np.array(lines)
    assert V.shape == (C.k, C.k) and len({v.tobytes() for v in V}) == C.k
    lead = np.argmax(V != 0, axis=1)
    assert np.all(V[np.arange(C.k), lead] == 1)
    for M in characters.class_matrices(G, C, range(C.k)):
        MV = (M % q) @ V.T % q                         # column j: M v_j
        eigenvalues = MV[lead, np.arange(C.k)]
        assert np.array_equal(MV, eigenvalues * V.T % q)
    assert shapes and all(rows == cols for rows, cols in shapes)


def test_is_prime_matches_a_sieve():
    # every n asked about is below 2^31 (PRIME_SEARCH_LIMIT)
    n = 10**5
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert [_is_prime(q) for q in range(n)] == sieve.tolist()
    # 2^31 - 1, the Dixon primes of psl2:101 and sl2:97, and 46327 * 46337 < 2^31
    assert _is_prime(2**31 - 1) and _is_prime(1_030_201) and _is_prime(3_194_017)
    assert not _is_prime(46327 * 46337)


def test_degrees_on_int64_products(monkeypatch):
    # a prime q = 1 (mod exponent) above 2^27 puts every product of the split
    # on int64, (q - 1)^2 >= 2^53, and passes the guard k (q - 1)^2 < 2^63
    def large_prime(exponent, order):
        q = (2**27 // exponent + 1) * exponent + 1
        while not _is_prime(q):
            q += exponent
        return q

    monkeypatch.setattr(characters, "_dixon_prime", large_prime)
    for desc in ["sl2:5", "psl2:7", "symmetric:4"]:
        G = build_group(desc)
        k = conjugacy_classes(G).k
        q = characters._dixon_prime(group_exponent(G), G.order)
        assert 2**53 <= (q - 1) ** 2 and k * (q - 1) ** 2 < 2**63
        assert list(character_degrees(G).degrees) == closed_forms.degrees(closed_forms.parse(desc))


def test_degrees_of_the_largest_benchmark_split():
    # k = 162 classes: the degrees-large workload's product, pairwise products of
    # sl2:5's closed-form degrees (twice) and cyclic:2's
    G = build_group("product:sl2:5,product:sl2:5,cyclic:2")
    sl2 = closed_forms.degrees(closed_forms.parse("sl2:5"))
    assert conjugacy_classes(G).k == 162
    assert list(character_degrees(G).degrees) == sorted(a * b * c for a in sl2 for b in sl2
                                                        for c in (1, 1))


def test_degrees_refuse_prime_that_overflows_int64(monkeypatch):
    # k (q - 1)^2 >= 2^63 for k = 3 classes and q = 2^31 - 1
    monkeypatch.setattr(characters, "_dixon_prime", lambda exponent, order: 2**31 - 1)
    with pytest.raises(CharacterError, match="int64"):
        character_degrees(build_group("symmetric:3"))


def _class_count_reaches_dixon_prime(G):
    return conjugacy_classes(G).k >= characters._dixon_prime(group_exponent(G), G.order)


def test_abelian_degrees_all_one():
    # (C2)^3, (C2)^6 and C7 x C7 have k = |G| classes, at least their Dixon
    # primes 7, 19 and 29: some spaces of their own splits have dimension >= q
    c2 = "product:cyclic:2,"
    reaching = [c2 * 2 + "cyclic:2", c2 * 5 + "cyclic:2", "product:cyclic:7,cyclic:7"]
    for desc in ["cyclic:8", "product:cyclic:2,cyclic:9"] + reaching:
        G = build_group(desc)
        assert character_degrees(G).degrees == (1,) * G.order
        assert _dixon_degrees(G) == [1] * G.order
        assert quasirandom_degree(G) == 1
        assert _class_count_reaches_dixon_prime(G) == (desc in reaching)


def test_product_degrees_are_pairwise_products():
    # Dixon's split of the product itself against its factors' degrees;
    # dihedral:2 x dihedral:2 has k = 16 classes, at least its Dixon prime 11
    for a, b in [("symmetric:3", "dihedral:4"), ("dihedral:2", "dihedral:2")]:
        P = build_group("product:%s,%s" % (a, b))
        expect = sorted(da * db for da in character_degrees(build_group(a)).degrees
                        for db in character_degrees(build_group(b)).degrees)
        assert sorted(_dixon_degrees(P)) == expect
        assert list(character_degrees(P).degrees) == expect
        assert _class_count_reaches_dixon_prime(P) == (a == "dihedral:2")


def _closed_form_degrees(tree):
    """Sorted degrees from closed forms; perfbench's cover no dihedral group."""
    if tree[0] == "product":
        return sorted(a * b for a in _closed_form_degrees(tree[1])
                      for b in _closed_form_degrees(tree[2]))
    if tree[0] == "dihedral":
        return list(oracles.dihedral_degrees(tree[1]))
    return closed_forms.degrees(tree)


def test_product_degrees_from_factors_match_dixon_and_closed_forms():
    # character_degrees multiplies the factors' degrees; Dixon's split of the
    # whole product and the closed forms must give the same multiset, and the
    # class count is still checked on the product before its factors are read
    for desc in ["product:sl2:5,product:sl2:5,cyclic:2",
                 "product:cyclic:2,product:cyclic:2,cyclic:2", "product:cyclic:7,cyclic:7",
                 "product:dihedral:2,dihedral:2", "product:cyclic:2,symmetric:3",
                 "product:dihedral:4,product:cyclic:3,psl2:5", "product:sl2:5,symmetric:4"]:
        P = build_group(desc)
        got = list(character_degrees(P).degrees)
        assert got == sorted(_dixon_degrees(P)) == _closed_form_degrees(parse_descriptor(desc))
    with pytest.raises(CharacterError, match="^class count 529 exceeds 512$"):
        character_degrees(build_group("product:cyclic:23,cyclic:23"))


def test_quasirandom_degree_values():
    # D = smallest nontrivial degree; cross-checked against the independent
    # eigen-multiplicity oracle rather than quoted values
    for desc in ["symmetric:4", "psl2:5", "sl2:5", "sl2:7"]:
        G = build_group(desc)
        oracle = oracles.degrees_by_eigen_multiplicity(G)
        nontrivial = [d for d in oracle[1:]]
        assert quasirandom_degree(G) == min(nontrivial)


def test_sl2_quasirandom_degree_formula():
    # smallest nontrivial degree of SL(2,p) is (p-1)/2 for p >= 5
    for p in [5, 7, 13]:
        assert quasirandom_degree(build_group("sl2:%d" % p)) == (p - 1) // 2


def test_trivial_group_degree_is_infinite():
    assert quasirandom_degree(build_group("cyclic:1")) == math.inf


def test_perfect_group_iff_degree_at_least_two():
    # a nontrivial linear character exists iff the abelianization is nontrivial
    assert quasirandom_degree(build_group("symmetric:4")) == 1    # sign character
    assert quasirandom_degree(build_group("dihedral:5")) == 1
    assert quasirandom_degree(build_group("sl2:5")) >= 2          # perfect
    assert quasirandom_degree(build_group("psl2:7")) >= 2         # simple


# ---------------------------------------------------------------------------
# exponent and determinism


def test_group_exponent_matches_element_order_lcm():
    for desc in ["symmetric:4", "dihedral:6", "sl2:5", "cyclic:12"]:
        G = build_group(desc)
        assert group_exponent(G) == oracles.exponent_by_element_orders(G)


def test_group_exponent_refuses_powers_that_miss_the_identity():
    # 1 * 1 = 1: element 1's powers never reach the identity 0
    G = GroupTable.from_table([[0, 1], [1, 1]])
    C = ConjugacyData(class_of=np.array([0, 1]), class_sizes=[1, 1], representatives=[0, 1])
    with pytest.raises(CharacterError, match="identity"):
        group_exponent(G, C)


def test_degrees_deterministic_across_instances():
    a = character_degrees(build_group("sl2:7")).degrees
    b = character_degrees(build_group("sl2:7")).degrees
    assert a == b


def test_degrees_cached_on_group():
    G = build_group("symmetric:4")
    assert character_degrees(G) is character_degrees(G)
