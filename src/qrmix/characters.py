"""Irreducible character degrees and the quasirandomness degree.

Degrees are computed exactly with Dixon's modular method: simultaneous
eigenvectors of the class-sum matrices over F_q for a prime
q = 1 (mod exponent(G)) with q > 2 sqrt(|G|), then each degree is lifted
from the central-character orthogonality relation
d^2 * sum_j w(C_j) w(C_j)* / |C_j| = |G| evaluated mod q.

Every product and elimination over F_q is exact under the guard
k (q - 1)^2 < 2^63, so the degrees do not depend on the BLAS build or its
thread count.

A direct product is not split: Irr(A x B) = {chi x psi}, so its degrees
are the pairwise products of its factors' exact degrees, with multiplicity.
Every result, a product's too, must have as many degrees as G has classes,
squares summing to |G| and each degree dividing |G|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import _is_prime, conjugacy_classes, product_factors

PRIME_SEARCH_LIMIT = 2**31
MAX_CLASSES = 512


class CharacterError(RuntimeError):
    """No usable prime, or the eigenspace splitting failed (implementation bug)."""


@dataclass
class ClassConstants:
    k: int
    a: np.ndarray  # a[i, j, l] = #{(x, y) : x in C_i, y in C_j, xy = z}, z in C_l fixed


@dataclass
class DegreeMultiset:
    degrees: tuple  # ascending, degrees[0] == 1
    group_order: int


def check_class_count(k):
    """k, if character_degrees takes a group of k conjugacy classes."""
    if k > MAX_CLASSES:
        raise CharacterError("class count %d exceeds %d" % (k, MAX_CLASSES))
    return k


def class_matrices(G, C, classes):
    """Yield M_i for i in classes, M_i[l, j] = a[i, j, l], multiplication by
    class sum i on class-sum coordinates, as exact integers.  |C_l| a[i, j, l]
    counts the pairs (x, y) in C_i x C_j with xy in C_l, which is
    |C_i| #{y in C_j : x_i y in C_l} for the representative x_i: one row of
    the group each, read into one buffer.  An int16 copy of the class table,
    the intp codes k class_of(y) and that row buffer are built once per call
    (k <= MAX_CLASSES) and dropped with the generator.  The class-of gather
    is added into the row buffer, so bincount reads intp codes in place: no
    |G|-long sum or cast copy per matrix."""
    k = check_class_count(C.k)
    narrow = C.class_of.astype(np.int16)
    codes = C.class_of * k
    sizes = np.asarray(C.class_sizes)[:, None]
    row = np.empty(G.order, dtype=np.intp)
    for i in classes:
        G.mul_vec(C.representatives[i], out=row)
        np.add(codes, narrow.take(row), out=row)
        counts = np.bincount(row, minlength=k * k).reshape(k, k)
        num = C.class_sizes[i] * counts.T                 # [l, j]
        if np.any(num % sizes):
            raise CharacterError("class %d's structure constants are not integers "
                                 "(the table is not a group)" % i)
        yield num // sizes


def class_constants(G, C=None):
    """Exact integer structure constants of the class algebra."""
    C = C if C is not None else conjugacy_classes(G)
    return ClassConstants(k=C.k, a=np.stack([M.T for M in class_matrices(G, C, range(C.k))]))


def group_exponent(G, C=None):
    """lcm of element orders (orders are class functions, so reps suffice),
    every representative raised to its next power by one mul_pairs."""
    C = C if C is not None else conjugacy_classes(G)
    reps = np.asarray(C.representatives)
    x, exp = reps, 1
    for power in range(1, G.order + 1):
        done = x == G.identity
        if done.any():
            exp = math.lcm(exp, power)
            reps, x = reps[~done], x[~done]
            if not len(reps):
                return exp
        x = G.mul_pairs(x, reps)
    raise CharacterError("a representative's powers miss the identity (the table is not a group)")


def _dixon_prime(exponent, order):
    lo = 2 * math.isqrt(order) + 1
    q = exponent + 1
    while q < PRIME_SEARCH_LIMIT:
        if q > lo and _is_prime(q):
            return q
        q += exponent
    raise CharacterError("no prime q = 1 mod %d below 2^31" % exponent)


# ---------------------------------------------------------------------------
# linear algebra over F_q on residue matrices: int64 entries in [0, q),
# q < 2^31.  character_degrees also refuses k (q - 1)^2 >= 2^63, the bound on
# a sum of k products of residues in int64.


# largest inner size whose product runs in int64, skipping the float64 round
# trip.  On a 2-core Xeon (numpy 2.4, OpenBLAS at one thread), d x d residue
# matrices and stacks of two took 1.8-9.4 us in int64 and 3.3-10.9 us through
# float64 for d = 1 ... 12; at 14 the two were even, and from 16 up BLAS won
INT64_INNER_MAX = 12


def _mulmod(A, B, q):
    """A @ B % q, exact, for residue matrices with k (q - 1)^2 < 2^63 (k the
    inner size).

    The int64 product is exact under that bound, and numpy runs it without
    BLAS; it is taken for k <= INT64_INNER_MAX, where it is the faster.  For
    larger k, while k (q - 1)^2 < 2^53, every partial sum is an integer below
    2^53, so one float64 product is exact whatever the summation order or
    the BLAS thread count.  Above that the int64 product again.
    """
    k = A.shape[-1]
    if k > INT64_INNER_MAX and k * (q - 1) ** 2 < 2**53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % q
    return A @ B % q


def _rref(A, q, rank=None):
    """Reduced row-echelon form of the residue matrix A over F_q, and its
    pivot columns.  Each pivot is the first column nonzero mod q in the rows
    not yet reduced.  Given the rank, elimination stops after rank pivots
    (and a shortfall is refused); otherwise it scans to the last column or
    row.  Row r is zero left of its pivot c, so its update touches columns c
    onward only.

    Reduction is lazy: only the pivot column and the pivot row are reduced
    mod q before each update, so an update subtracts from each entry a
    product of two residues, at most (q - 1)^2, and the returned rows are
    reduced once at the end.  After at most min(A.shape) updates every entry
    lies in (-min(A.shape) (q - 1)^2, q), exact in int64 under the guard
    k (q - 1)^2 < 2^63 of character_degrees.
    """
    A = A % q
    rows, cols = A.shape
    stop = min(rows, cols) if rank is None else rank
    pivots = []
    c = 0
    while len(pivots) < stop and c < cols:
        r = len(pivots)
        col = A[:, c] % q
        nz = np.flatnonzero(col[r:])
        if not len(nz):
            c += 1
            continue
        lead = r + int(nz[0])
        if lead != r:
            A[[r, lead]] = A[[lead, r]]
            col[[r, lead]] = col[[lead, r]]
        row = A[r, c:] % q * pow(int(col[r]), q - 2, q) % q
        col[r] = 0
        A[:, c:] -= col[:, None] * row
        A[r, c:] = row
        pivots.append(c)
        c += 1
    if len(pivots) < stop and rank is not None:
        raise CharacterError("rank below %d (implementation bug)" % rank)
    return A[:len(pivots)] % q, pivots


def _matpow(A, e, q):
    """A^e over F_q, e >= 1, by repeated squaring from A itself; A may be a
    stack of square matrices, each raised to the e-th power."""
    out = None
    while True:
        if e & 1:
            out = A if out is None else _mulmod(out, A, q)
        e >>= 1
        if not e:
            return out
        A = _mulmod(A, A, q)


def _split_step(S, q, start):
    """A = (S + aI)^((q-1)/2), A^2 and a for the first a = start, start + 1,
    ... at which A is not 0, I or -I, two shifts to one stacked _matpow;
    refused when A^3 != A."""
    eye = np.eye(len(S), dtype=np.int64)
    for a0 in range(start, q, 2):
        shifts = np.arange(a0, min(a0 + 2, q))[:, None, None]
        for a, A in zip(range(a0, q), _matpow((S + shifts * eye) % q, (q - 1) // 2, q)):
            if A[0, 0] in (0, 1, q - 1) and np.array_equal(A, A[0, 0] * eye):
                continue
            A2 = _mulmod(A, A, q)
            if not np.array_equal(_mulmod(A2, A, q), A):
                raise CharacterError("A^3 != A: the class matrix does not split over F_%d" % q)
            return A, A2, a
    raise CharacterError("eigenspace splitting stalled (implementation bug)")


def _split_local(R, q):
    """Eigenspaces of the d x d matrix R over F_q, as rref row bases in R's
    own coordinates (row vectors c, acted on by c -> c R).

    A space on which the restriction S is not scalar is split by the images
    of the projectors of _split_step's A.  A child with rref basis Y in S's
    coordinates has the restriction T = (Y S)[:, pivots(Y)], checked by
    T Y = Y S, and its basis in R's coordinates is Y times its parent's, again
    in rref.  A child resumes the shift search at its parent's shift a plus
    one: every earlier shift gave 0, I or -I on the parent, and a itself a
    scalar on each image, so each is scalar on the child too and could not
    split it.  The images' ranks are r - tr A^2 and (tr A^2 +- tr A) / 2 on a
    space of dimension r.  Read off the traces mod q they are exact only
    while r < q, and only then do they end an elimination early; from r = q
    on each elimination scans to the last column.
    """
    d = len(R)
    half = (q + 1) // 2
    pieces = []
    # a restriction S, its basis in R's coordinates, and the first shift to try
    todo = [(R, np.eye(d, dtype=np.int64), 0)]
    while todo:
        S, Y, start = todo.pop()
        r = len(S)
        eye = np.eye(r, dtype=np.int64)
        if r == 1 or np.array_equal(S, S[0, 0] * eye):
            pieces.append(Y)
            continue
        A, A2, a = _split_step(S, q, start)
        t1, t2 = int(np.trace(A)), int(np.trace(A2))
        ranks = [(r - t2) % q, (t2 + t1) * half % q, (t2 - t1) * half % q] if r < q else [None] * 3
        # row images of the projectors, rows c with c A = 0, c, -c; the factor
        # 1/2 leaves an image as it is and is dropped.  Two or more are not
        # zero, since A is not scalar
        for P, rank in zip((eye - A2, A2 + A, A2 - A), ranks):
            Z, pivots = _rref(P, q, rank)
            if not len(Z):
                continue
            ZS = _mulmod(Z, S, q)
            T = ZS[:, pivots]
            if not np.array_equal(_mulmod(T, Z, q), ZS):
                raise CharacterError("subspace not invariant (implementation bug)")
            todo.append((T, _mulmod(Z, Y, q), a + 1))
    return pieces


def _split_spaces(mats, q):
    """Common eigenbasis of a commuting family of k x k matrices over F_q,
    reading the iterable mats only until every space is a line.

    A space B (rref rows) on which M is not scalar is split by the quadratic
    character of lambda + a: A = (R + aI)^((q-1)/2), R the restriction of M
    to B, is 0, 1 or -1 on each eigenvector of R.  So A^3 = A when R splits
    over F_q, and the images of the projectors I - A^2, (A^2 + A)/2 and
    (A^2 - A)/2 onto its 0, 1 and -1 eigenspaces split B for the first
    a = 0, 1, ... that leaves two of them non-zero.  An A of 0, I or -I is
    passed over unsolved, and any other A with A^3 != A is refused: R does
    not split.

    R is read and checked once per space and matrix, at width k; the whole
    split of B under M then runs in R's d coordinates (_split_local), and
    only its final pieces X return to width k, as X B.  That product is in
    rref already: X is zero left of its pivots and B[:, pivots(B)] = I, so its
    pivots are B's pivots at X's pivot columns.
    """
    spaces = None
    for M in mats:
        if spaces is None:
            spaces = [np.eye(len(M), dtype=np.int64)]
        done = []
        for B in spaces:
            if len(B) == 1:
                done.append(B)
                continue
            W = _mulmod(B, M.T, q)
            R = W[:, np.argmax(B != 0, axis=1)]  # coords in B's rows (B is in rref, M-invariant)
            if not np.array_equal(_mulmod(R, B, q), W):
                raise CharacterError("subspace not invariant (implementation bug)")
            pieces = _split_local(R, q)
            done += [B] if len(pieces) == 1 else [_mulmod(X, B, q) for X in pieces]
        spaces = done
        if all(len(B) == 1 for B in spaces):
            break
    if spaces is None or any(len(B) != 1 for B in spaces):
        raise CharacterError("eigenspace splitting incomplete (implementation bug)")
    return [B[0] for B in spaces]


def _dixon_degrees(G, C):
    """G's character degrees, unsorted, by Dixon's split of the classes C."""
    n, k = G.order, C.k
    exponent = group_exponent(G, C)
    q = _dixon_prime(exponent, n)
    if k * (q - 1) ** 2 >= 2**63:
        raise CharacterError("k (q-1)^2 >= 2^63 at k = %d, q = %d: int64 overflow" % (k, q))
    e = int(C.class_of[G.identity])     # its class matrix is I, which splits nothing
    # the other classes, one of each size, then a second of each, ...: classes
    # of one size are often one family and separate the same characters.  They
    # ascend by size, so a class's rank within its size is its index past the first
    rest = np.delete(np.arange(k), e)
    rest_sizes = np.asarray(C.class_sizes)[rest]
    rank = np.arange(k - 1) - np.searchsorted(rest_sizes, rest_sizes)
    order = rest[np.argsort(rank, kind="stable")].tolist()
    vectors = _split_spaces((M % q for M in class_matrices(G, C, order)), q)
    inv_class = C.class_of[G.inverses(C.representatives)]
    sizes = np.asarray(C.class_sizes, dtype=np.int64) % q
    size_inv = np.array([pow(int(s), q - 2, q) for s in sizes], dtype=np.int64)
    degrees = []
    cap = math.isqrt(n)
    for v in vectors:
        # v_l is proportional to chi(z_l^-1), chi's central idempotent, so
        # w_i = |C_i| chi(z_i) / chi(1) = |C_i| v[inv(i)] / v[e]
        omega = sizes * v[inv_class] % q * pow(int(v[e]), q - 2, q) % q
        s = int(np.sum(omega * omega[inv_class] % q * size_inv % q) % q)
        if s == 0:
            raise CharacterError("degenerate orthogonality sum (implementation bug)")
        d2 = n % q * pow(s, q - 2, q) % q
        d = next((t for t in range(1, cap + 1) if t * t % q == d2), None)
        if d is None:
            raise CharacterError("no degree lift in (0, sqrt|G|] (implementation bug)")
        degrees.append(d)
    return degrees


def character_degrees(G):
    """Exact multiset of irreducible character degrees of G.

    A product A x B takes the pairwise products of its factors' degrees,
    exact since Irr(A x B) = {chi x psi}, its factors (groups.product_factors)
    held for this call only; every other group, a raw table included, runs
    Dixon's split.  Either result must have k entries, k from G's own classes
    and at most MAX_CLASSES, squares summing to |G| and every entry dividing
    |G|."""
    if G._degrees is not None:
        return G._degrees
    n = G.order
    if n == 1:
        G._degrees = DegreeMultiset(degrees=(1,), group_order=1)
        return G._degrees
    C = conjugacy_classes(G)
    k = check_class_count(C.k)
    factors = product_factors(G)
    if factors:
        da, db = [character_degrees(F).degrees for F in factors]
        degrees = [a * b for a in da for b in db]
    else:
        degrees = _dixon_degrees(G, C)
    result = DegreeMultiset(degrees=tuple(sorted(degrees)), group_order=n)
    if sum(d * d for d in result.degrees) != n or len(result.degrees) != k:
        raise CharacterError("degree multiset fails sum-of-squares/count check")
    if any(n % d for d in result.degrees):
        raise CharacterError("a computed degree does not divide |G|")
    G._degrees = result
    return result


def quasirandom_degree(G):
    """Largest D such that G has no nontrivial irreducible of dimension < D.

    Equals the minimal nontrivial character degree; math.inf for the
    trivial group (vacuously D-quasirandom for every D).
    """
    if G.order == 1:
        return math.inf
    degrees = character_degrees(G).degrees
    return degrees[1]
