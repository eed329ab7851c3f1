"""Irreducible character degrees and the quasirandomness degree.

Degrees are computed exactly with Dixon's modular method: simultaneous
eigenvectors of the class-sum matrices over F_q for a prime
q = 1 (mod exponent(G)) with q > 2 sqrt(|G|), then each degree is lifted
from the central-character orthogonality relation
d^2 * sum_j w(C_j) w(C_j)* / |C_j| = |G| evaluated mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import _is_prime, conjugacy_classes

PRIME_SEARCH_LIMIT = 2**31


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


def class_constants(G, C=None):
    """Exact integer structure constants of the class algebra."""
    C = C if C is not None else conjugacy_classes(G)
    k = C.k
    n = G.order
    xs = np.arange(n, dtype=np.int64)
    ci = C.class_of[xs]
    a = np.zeros((k, k, k), dtype=np.int64)
    for l in range(k):
        z = C.representatives[l]
        # xy = z  <=>  y = x^-1 z
        cj = C.class_of[G.vec_mul(None, z)[G.inv]]
        a[:, :, l] = np.bincount(ci * k + cj, minlength=k * k).reshape(k, k)
    return ClassConstants(k=k, a=a)


def group_exponent(G, C=None):
    """lcm of element orders (orders are class functions, so reps suffice)."""
    C = C if C is not None else conjugacy_classes(G)
    exp = 1
    for r in C.representatives:
        exp = math.lcm(exp, G.element_order(r))
    return exp


def _dixon_prime(exponent, order):
    lo = 2 * math.isqrt(order) + 1
    q = exponent + 1
    while q < PRIME_SEARCH_LIMIT:
        if q > lo and _is_prime(q):
            return q
        q += exponent
    raise CharacterError("no prime q = 1 mod %d below 2^31" % exponent)


# ---------------------------------------------------------------------------
# linear algebra over F_q (k <= 512, q < 2^31: products fit in int64)


def _rref(A, q):
    A = A.copy() % q
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if len(nz) == 0:
            continue
        lead = r + int(nz[0])
        if lead != r:
            A[[r, lead]] = A[[lead, r]]
        A[r] = A[r] * pow(int(A[r, c]), q - 2, q) % q
        mask = np.ones(rows, dtype=bool)
        mask[r] = False
        A[mask] = (A[mask] - np.outer(A[mask, c], A[r])) % q
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _nullspace(A, q):
    """Rows form a basis (in rref) of the right kernel of A."""
    R, pivots = _rref(A, q)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for t, c in enumerate(free):
        basis[t, c] = 1
        for r, pc in enumerate(pivots):
            basis[t, pc] = (-R[r, c]) % q
    if len(basis):
        basis, _ = _rref(basis, q)
    return basis


# dense polynomials over F_q, coefficients ascending


def _poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, q):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return _poly_trim(out)


def _poly_divmod(f, g, q):
    f = list(f)
    dg = len(g) - 1
    ginv = pow(g[-1], q - 2, q)
    quo = [0] * max(1, len(f) - dg)
    while len(f) - 1 >= dg and any(f):
        shift = len(f) - 1 - dg
        c = f[-1] * ginv % q
        quo[shift] = c
        for i in range(len(g)):
            f[shift + i] = (f[shift + i] - c * g[i]) % q
        _poly_trim(f)
        if len(f) == 1 and f[0] == 0:
            break
    return _poly_trim(quo), _poly_trim(f)


def _poly_gcd(f, g, q):
    f, g = list(f), list(g)
    while not (len(g) == 1 and g[0] == 0):
        _, r = _poly_divmod(f, g, q)
        f, g = g, r
    lead_inv = pow(f[-1], q - 2, q)
    return [c * lead_inv % q for c in f]


def _poly_powmod(base, e, mod, q):
    result = [1]
    base = _poly_divmod(base, mod, q)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, q), mod, q)[1]
        base = _poly_divmod(_poly_mul(base, base, q), mod, q)[1]
        e >>= 1
    return result


def _poly_deriv(f, q):
    return _poly_trim([i * c % q for i, c in enumerate(f)][1:] or [0])


def _poly_sub(f, g, q):
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c % q
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % q
    return _poly_trim(out)


def _is_zero_poly(f):
    return len(f) == 1 and f[0] == 0


def _poly_roots(f, q):
    """All roots of f in F_q; raises if f does not split completely.

    Deterministic: splits with gcd(f, (x+a)^((q-1)/2) - 1) for a = 0, 1, ...
    """
    f = [c % q for c in f]
    sf = _poly_divmod(f, _poly_gcd(f, _poly_deriv(f, q), q), q)[0]
    lead_inv = pow(sf[-1], q - 2, q)
    sf = [c * lead_inv % q for c in sf]
    # sf splits into distinct linear factors iff x^q = x (mod sf)
    if len(sf) > 2 and not _is_zero_poly(_poly_sub(_poly_powmod([0, 1], q, sf, q), [0, 1], q)):
        raise CharacterError("characteristic polynomial does not split over F_%d" % q)
    roots = []
    stack = [sf]
    while stack:
        g = stack.pop()
        if len(g) == 1:
            continue
        if len(g) == 2:
            roots.append((-g[0]) * pow(g[1], q - 2, q) % q)
            continue
        for a in range(q):
            h = _poly_sub(_poly_powmod([a, 1], (q - 1) // 2, g, q), [1], q)
            if _is_zero_poly(h):
                continue
            d = _poly_gcd(g, h, q)
            if 0 < len(d) - 1 < len(g) - 1:
                stack.append(d)
                stack.append(_poly_divmod(g, d, q)[0])
                break
        else:
            raise CharacterError("root splitting stalled (implementation bug)")
    return sorted(roots)


def _min_poly(R, q):
    """Minimal polynomial of R over F_q (squarefree here: commuting semisimple family)."""
    d = len(R)
    f = [1]
    for t in range(d):
        if len(f) - 1 == d:
            break
        # annihilator of e_t via Krylov sequence
        v = np.zeros(d, dtype=np.int64)
        v[t] = 1
        krylov = [v]
        for _ in range(d):
            krylov.append(R @ krylov[-1] % q)
        K = np.array(krylov)
        ann = None
        for m in range(1, d + 1):
            # express K[m] in terms of K[:m] if possible
            aug = np.concatenate([K[:m].T, K[m][:, None]], axis=1)
            Rr, piv = _rref(aug, q)
            if m not in piv:
                coeffs = np.zeros(m, dtype=np.int64)
                for r, pc in enumerate(piv):
                    coeffs[pc] = Rr[r, m]
                ann = [(-int(c)) % q for c in coeffs] + [1]
                break
        if ann is None:
            ann = [0, 1]  # unreachable for d >= 1
        g = _poly_gcd(f, ann, q)
        f = _poly_divmod(_poly_mul(f, ann, q), g, q)[0]
    return f


def _split_spaces(mats, q):
    """Common eigenbasis of a commuting family of k x k matrices over F_q."""
    k = mats[0].shape[0]
    spaces = [np.eye(k, dtype=np.int64)]
    for M in mats:
        if all(len(B) == 1 for B in spaces):
            break
        new_spaces = []
        for B in spaces:
            if len(B) == 1:
                new_spaces.append(B)
                continue
            _, piv = _rref(B, q)
            W = B @ M.T % q
            R = W[:, piv]  # coords in the rref basis (subspace is M-invariant)
            if not np.array_equal(R @ B % q, W):
                raise CharacterError("subspace not invariant (implementation bug)")
            roots = _poly_roots(_min_poly(R, q), q)
            if len(roots) == 1:
                new_spaces.append(B)
                continue
            for lam in roots:
                shifted = (R - lam * np.eye(len(R), dtype=np.int64)) % q
                coords = _nullspace(shifted.T, q)  # left kernel: rows c with c R = lam c
                sub = coords @ B % q
                sub, _ = _rref(sub, q)
                new_spaces.append(sub)
        spaces = new_spaces
    if any(len(B) != 1 for B in spaces):
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
    k = C.k
    if k > 512:
        raise CharacterError("class count %d exceeds 512" % k)
    cc = class_constants(G, C)
    exponent = group_exponent(G, C)
    q = _dixon_prime(exponent, n)
    # M_i[l, j] = a[i, j, l]: multiplication by class sum i on class-sum coordinates
    mats = [cc.a[i].T % q for i in range(k)]
    vectors = _split_spaces(mats, q)
    inv_class = [int(C.class_of[G.inv[r]]) for r in C.representatives]
    size_inv = [pow(s, q - 2, q) for s in C.class_sizes]
    degrees = []
    cap = math.isqrt(n)
    for v in vectors:
        pivot = int(np.nonzero(v)[0][0])
        piv_inv = pow(int(v[pivot]), q - 2, q)
        omega = [int(M[pivot] @ v % q) * piv_inv % q for M in mats]
        s = 0
        for i in range(k):
            s = (s + omega[i] * omega[inv_class[i]] % q * size_inv[i]) % q
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
