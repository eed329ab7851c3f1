"""Irreducible character degrees and the quasirandomness degree.

Degrees are computed exactly with Dixon's modular method: simultaneous
eigenvectors of the class-sum matrices over F_q for a prime
q = 1 (mod exponent(G)) with q > 2 sqrt(|G|), then each degree is lifted
from the central-character orthogonality relation
d^2 * sum_j w(C_j) w(C_j)* / |C_j| = |G| evaluated mod q.

The class matrices are built lazily, one group row each, and only as many
as the split reads before every eigenspace is a line.  They are read one
class of each size first, then a second of each size, and so on, since
classes of one size often separate the same characters.  The eigenspaces
are split without polynomials: on a space where a class matrix R is not
scalar, A = (R + aI)^((q-1)/2) takes the quadratic character of lambda + a
on each eigenvector, so A^3 = A, and the images of its projectors
I - A^2, (A^2 + A)/2 and (A^2 - A)/2 split the space for the first
a = 0, 1, ... that separates two eigenvalues.  Each common eigenvector is
proportional to a character's central idempotent, so the central character
w is read off the vector itself.

Products over F_q run as float64 matrix products (BLAS) and are exact: with
residues below q and inner size k, every partial sum is an integer of at
most k (q - 1)^2, and when that is below 2^53 the float64 sums are exact in
any order.  Above it they run as int64 products, without BLAS.  So the
degrees do not depend on the BLAS build or its thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import _is_prime, conjugacy_classes

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
    the group each.  An int16 copy of the class table and the int32 codes
    k class_of(y) are built once per call (k <= MAX_CLASSES) and dropped with
    the generator."""
    k = check_class_count(C.k)
    narrow = C.class_of.astype(np.int16)
    codes = narrow.astype(np.int32) * k
    sizes = np.asarray(C.class_sizes)[:, None]
    for i in classes:
        row = G.mul_vec(C.representatives[i])
        counts = np.bincount(codes + narrow.take(row), minlength=k * k).reshape(k, k)
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


def _mulmod(A, B, q):
    """A @ B % q, exact, for residue matrices with k (q - 1)^2 < 2^63 (k the
    inner size).

    When k (q - 1)^2 < 2^53 every partial sum is an integer below 2^53, so one
    float64 product is exact whatever the summation order or the BLAS thread
    count.  Otherwise the int64 product, which numpy runs without BLAS.
    """
    if A.shape[-1] * (q - 1) ** 2 < 2**53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % q
    return A @ B % q


def _rref(A, q):
    """Reduced row-echelon form of the residue matrix A over F_q, and its
    pivot columns.  Each pivot is the first nonzero column of the rows not
    yet reduced, and elimination stops once those rows are zero.  Row r is
    zero left of its pivot c, so its update touches columns c onward only."""
    A = A % q
    rows, cols = A.shape
    pivots = []
    c = 0
    for r in range(rows):
        nz = np.flatnonzero(A[r:, c:].any(axis=0))
        if not len(nz):
            break
        c += int(nz[0])
        lead = r + int(np.argmax(A[r:, c] != 0))
        if lead != r:
            A[[r, lead]] = A[[lead, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), q - 2, q) % q
        f = A[:, c].copy()
        f[r] = 0
        A[:, c:] -= np.outer(f, A[r, c:])
        A[:, c:] %= q
        pivots.append(c)
        c += 1
    return A[:len(pivots)], pivots


def _matpow(A, e, q):
    """A^e over F_q by repeated squaring."""
    out = np.eye(len(A), dtype=np.int64)
    while e:
        if e & 1:
            out = _mulmod(out, A, q)
        A = _mulmod(A, A, q)
        e >>= 1
    return out


def _split_spaces(mats, q):
    """Common eigenbasis of a commuting family of k x k matrices over F_q,
    reading the iterable mats only until every space is a line.

    A space B on which M is not scalar is split by the quadratic character of
    lambda + a: A = (R + aI)^((q-1)/2), R the restriction of M to B, is 0, 1 or
    -1 on each eigenvector of R.  So A^3 = A when R splits over F_q, and the
    images of the projectors I - A^2, (A^2 + A)/2 and (A^2 - A)/2 onto its 0,
    1 and -1 eigenspaces split B for the first a = 0, 1, ... that leaves two
    of them non-zero.  An A of 0, I or -I is passed over unsolved, and any
    other A with A^3 != A is refused: R does not split.
    """
    spaces = None
    for M in mats:
        if spaces is None:
            spaces = [np.eye(len(M), dtype=np.int64)]
        done, todo = [], spaces
        while todo:
            B = todo.pop()
            d = len(B)
            if d == 1:
                done.append(B)
                continue
            W = _mulmod(B, M.T, q)
            R = W[:, np.argmax(B != 0, axis=1)]  # coords in B's rows (B is in rref, M-invariant)
            if not np.array_equal(_mulmod(R, B, q), W):
                raise CharacterError("subspace not invariant (implementation bug)")
            eye = np.eye(d, dtype=np.int64)
            if np.array_equal(R, R[0, 0] * eye):
                done.append(B)
                continue
            for a in range(q):
                A = _matpow((R + a * eye) % q, (q - 1) // 2, q)
                if A[0, 0] in (0, 1, q - 1) and np.array_equal(A, A[0, 0] * eye):
                    continue
                A2 = _mulmod(A, A, q)
                if not np.array_equal(_mulmod(A2, A, q), A):
                    raise CharacterError("A^3 != A: the class matrix does not split over F_%d" % q)
                # row images of the projectors, rows c with c A = 0, c, -c; the
                # factor 1/2 leaves an image as it is and is dropped
                parts = [_rref(_mulmod(P % q, B, q), q)[0] for P in (eye - A2, A2 + A, A2 - A)]
                todo += [c for c in parts if len(c)]     # two or more: A is not scalar
                break
            else:
                raise CharacterError("eigenspace splitting stalled (implementation bug)")
        spaces = done
        if all(len(B) == 1 for B in spaces):
            break
    if spaces is None or any(len(B) != 1 for B in spaces):
        raise CharacterError("eigenspace splitting incomplete (implementation bug)")
    return [B[0] for B in spaces]


def character_degrees(G):
    """Exact multiset of irreducible character degrees of G."""
    if G._degrees is not None:
        return G._degrees
    n = G.order
    if n == 1:
        G._degrees = DegreeMultiset(degrees=(1,), group_order=1)
        return G._degrees
    C = conjugacy_classes(G)
    k = check_class_count(C.k)
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
    inv_class = C.class_of[G.inv[C.representatives]]
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
    degrees.sort()
    result = DegreeMultiset(degrees=tuple(degrees), group_order=n)
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
