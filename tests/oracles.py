"""Test oracles and fixtures that the package itself never runs.

The oracles recompute quantities from first principles (brute-force
enumeration, dense float linear algebra, the group axioms, Bessel's
inequality) without touching the package's own algorithms beyond the
element-index interface.  The fixtures build inputs for the tests (the
trivial action), load perfbench's modules by path and read peak memory.
"""

import contextlib
import importlib.util
import itertools
import math
import os
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np

from qrmix import ActionTable, PreconditionError, ProbabilitySpace, conjugacy_classes, inner
from qrmix.groups import PASS_TOL
from qrmix.recurrence import IDENTITY_TOL

AXIOM_SAMPLE_TRIPLES = 100_000  # associativity triples verify_group_axioms samples
# every p that sl2:p and psl2:p take, by trial division
ODD_PRIMES_TO_101 = [p for p in range(3, 102, 2)
                     if all(p % r for r in range(3, math.isqrt(p) + 1, 2))]


_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def perfbench_module(name):
    """perfbench/<name>.py, loaded read-only by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  os.path.join(_PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def traced_memory():
    """tracemalloc on for the with block, which calls the function it yields
    for (bytes held, peak bytes) allocated since the block began."""
    tracemalloc.start()
    try:
        yield tracemalloc.get_traced_memory
    finally:
        tracemalloc.stop()


def sl2_elements(p):
    """All 2x2 matrices over Z_p with determinant 1, by exhaustive scan."""
    out = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p == 1:
            out.append((a, b, c, d))
    return out


def psl2_order(p):
    """|PSL(2,p)| by identifying each matrix with its negation."""
    seen = set()
    for m in sl2_elements(p):
        neg = tuple((-x) % p for x in m)
        seen.add(min(m, neg))
    return len(seen)


def compose_perms(p, q):
    """(p o q)(x) = p[q[x]] on one-line tuples."""
    return tuple(p[q[x]] for x in range(len(p)))


def brute_force_conjugacy(G):
    """Conjugacy partition via the O(|G|^2) definition; returns a frozenset
    of frozensets of element indices."""
    n = G.order
    classes = []
    assigned = [False] * n
    for x in range(n):
        if assigned[x]:
            continue
        orbit = set()
        for h in range(n):
            orbit.add(G.mul(G.mul(h, x), int(G.inv[h])))
        for y in orbit:
            assigned[y] = True
        classes.append(frozenset(orbit))
    return frozenset(classes)


def brute_force_class_constants(G):
    """a[i, j, l] = #{(x, y) : x in C_i, y in C_j, xy = z_l} by scanning all
    |G|^2 products; z_l is the representative of class l."""
    C = conjugacy_classes(G)
    n, k = G.order, C.k
    a = np.zeros((k, k, k), dtype=np.int64)
    rep_of_class = {l: C.representatives[l] for l in range(k)}
    target_class = {v: l for l, v in rep_of_class.items()}
    for x in range(n):
        row = G.mul_vec(x, np.arange(n, dtype=np.int64))
        for y in range(n):
            z = int(row[y])
            l = target_class.get(z)
            if l is not None and z == rep_of_class[l]:
                a[C.class_of[x], C.class_of[y], l] += 1
    return a


def _generic_central_element(G, seed=12345):
    """The |G| x |G| matrix of right multiplication by the central element
    z = sum_i t_i (sum of class i), for class weights t drawn from seed:
    (M f)(x) = sum_g t(g) f(xg)."""
    n = G.order
    C = conjugacy_classes(G)
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.0, 2.0, C.k) + 1j * rng.uniform(1.0, 2.0, C.k)
    xs = np.arange(n, dtype=np.int64)
    M = np.zeros((n, n), dtype=np.complex128)
    for g in range(n):
        M[xs, G.vec_mul(xs, g)] += t[C.class_of[g]]
    return M


def _equal_runs(eig):
    """(start, stop) of each run of equal values in the sorted eigenvalues."""
    runs, i = [], 0
    while i < len(eig):
        j = i
        while j < len(eig) and abs(eig[j] - eig[i]) < 1e-6:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def degrees_by_eigen_multiplicity(G, seed=12345):
    """Character degrees from eigenvalue multiplicities of a generic central
    element acting on C[G] by right multiplication.

    The regular representation splits into isotypic components of dimension
    d^2 on which any central element acts as a scalar, so for generic class
    weights the multiplicity of each eigenvalue is d^2.
    """
    eig = np.sort_complex(np.linalg.eigvals(_generic_central_element(G, seed)))
    degrees = []
    for i, j in _equal_runs(eig):
        d = math.isqrt(j - i)
        assert d * d == j - i, "multiplicity %d is not a perfect square" % (j - i)
        degrees.append(d)
    return tuple(sorted(degrees))


WITNESS_DRAWS = range(100)      # the seeds isotypic_witness picks its draw from
WITNESS_GROUPS = ["sl2:5", "psl2:5", "psl2:7", "sl2:7"]     # where the tests use it


def isotypic_witness(G):
    """(d, values): a near-extremal witness for the D^(-1/2) mixing bound,
    with d the least character degree above 1.

    The eigenspace of multiplicity d^2 of degrees_by_eigen_multiplicity's
    central element is an isotypic component of degree d; the first one in
    np.sort_complex order is orthonormalized.  Each seed in WITNESS_DRAWS
    projects a complex Gaussian vector onto it, scaled to ||f||_inf = 1, and
    the draw kept is the one whose smaller mixing ratio
    avg_g |<f, g . f>| / (d^(-1/2) ||f||_2^2), under left and right
    translation, is largest, both ratios recomputed here by brute force.
    """
    n = G.order
    xs = np.arange(n, dtype=np.int64)
    w, V = np.linalg.eig(_generic_central_element(G))
    order = np.lexsort((w.imag, w.real))        # np.sort_complex's order
    runs = [order[i:j] for i, j in _equal_runs(w[order])]
    d = min(math.isqrt(len(r)) for r in runs if len(r) > 1)
    Q = np.linalg.qr(V[:, next(r for r in runs if len(r) == d * d)])[0]
    rows = [np.array([G.mul_vec(int(G.inv[g]), xs) for g in range(n)]),    # x -> g^-1 x
            np.array([G.vec_mul(xs, g) for g in range(n)])]                 # x -> xg

    def ratio(f):
        bound = d ** -0.5 * float(np.mean(np.abs(f) ** 2))
        return min(float(np.mean(np.abs(f[R] @ np.conj(f)))) / n / bound for R in rows)

    draws = []
    for s in WITNESS_DRAWS:
        rng = np.random.default_rng(s)
        f = Q @ (np.conj(Q.T) @ (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        draws.append(f / np.max(np.abs(f)))
    return d, max(draws, key=ratio)


def dihedral_degrees(n):
    """Degrees of the dihedral group of order 2n: for n odd, 2 ones and
    (n - 1)/2 twos; for n even, 4 ones and (n - 2)/2 twos."""
    if n % 2:
        return (1,) * 2 + (2,) * ((n - 1) // 2)
    return (1,) * 4 + (2,) * ((n - 2) // 2)


def rref_mod_q(A, q):
    """Reduced row-echelon form over F_q and its pivot columns, by textbook
    Gauss-Jordan elimination on Python integers, one entry at a time."""
    R = [[int(x) % q for x in row] for row in A]
    pivots = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        lead = next((i for i in range(r, len(R)) if R[i][c]), None)
        if lead is None:
            continue
        R[r], R[lead] = R[lead], R[r]
        inv = pow(R[r][c], q - 2, q)
        R[r] = [x * inv % q for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % q for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R[:len(pivots)], pivots


def element_order(G, i):
    """Order of element i, by multiplying by i until the identity comes back."""
    k, x = 1, int(i)
    while x != G.identity:
        x = G.mul(x, i)
        k += 1
    return k


def exponent_by_element_orders(G):
    out = 1
    for g in range(G.order):
        out = math.lcm(out, element_order(G, g))
    return out


def projection_by_group_average(a, f):
    """P_a f as the literal average (1/|G|) sum_g f(g^-1 . x)."""
    G = a.group
    acc = np.zeros(a.space.size, dtype=np.complex128)
    for g in range(G.order):
        acc += f.values[a.act_row(int(G.inv[g]))]
    return acc / G.order


def trivial_action(G):
    """The custom action of G on itself in which every g fixes every point."""
    space = ProbabilitySpace.uniform(G.order)
    return ActionTable(G, space, "custom", rows=np.tile(np.arange(space.size), (G.order, 1)))


# ---------------------------------------------------------------------------
# group axioms


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    witness: tuple = None


@dataclass
class AxiomReport:
    checks: list

    @property
    def all_ok(self):
        return all(c.ok for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_group_axioms(G):
    """Check identity, inverses, associativity, and translation bijectivity.

    Associativity is exhaustive for order <= 512 with a dense table and
    checked on AXIOM_SAMPLE_TRIPLES random triples otherwise; translation
    bijectivity is exhaustive for order <= 512 and checked on 64 random
    elements above.  Failures come back as report entries with a witness,
    never as exceptions.
    """
    n = G.order
    xs = np.arange(n, dtype=np.int64)
    checks = []

    e = G.identity
    left = G.mul_vec(e, xs)
    right = G.vec_mul(xs, e)
    bad = np.nonzero((left != xs) | (right != xs))[0]
    checks.append(AxiomCheck("identity", len(bad) == 0,
                             (int(bad[0]),) if len(bad) else None))

    prod = G.mul_pairs(xs, G.inv)
    bad = np.nonzero(prod != e)[0]
    checks.append(AxiomCheck("inverses", len(bad) == 0,
                             (int(bad[0]),) if len(bad) else None))

    witness = None
    if n <= 512 and G.table is not None:
        T = G.table
        for g in range(n):
            lhs = T[T[g], :]
            rhs = T[g][T]
            if not np.array_equal(lhs, rhs):
                h, k = (int(v) for v in np.argwhere(lhs != rhs)[0])
                witness = (g, h, k)
                break
    else:
        rng = np.random.default_rng(0)
        gs, hs, ks = (rng.integers(0, n, AXIOM_SAMPLE_TRIPLES) for _ in range(3))
        lhs = G.mul_pairs(G.mul_pairs(gs, hs), ks)
        rhs = G.mul_pairs(gs, G.mul_pairs(hs, ks))
        bad = np.nonzero(lhs != rhs)[0]
        if len(bad):
            t = int(bad[0])
            witness = (int(gs[t]), int(hs[t]), int(ks[t]))
    checks.append(AxiomCheck("associativity", witness is None, witness))

    witness = None
    sample = range(n) if n <= 512 else np.random.default_rng(1).integers(0, n, 64)
    for g in sample:
        g = int(g)
        row = np.bincount(G.mul_vec(g, xs), minlength=n)
        col = np.bincount(G.vec_mul(xs, g), minlength=n)
        if row.max() != 1 or col.max() != 1:
            witness = (g,)
            break
    checks.append(AxiomCheck("translation_bijectivity", witness is None, witness))

    return AxiomReport(checks)


# ---------------------------------------------------------------------------
# Bessel's inequality


@dataclass
class BesselResult:
    sum_of_squares: float
    norm_sq: float

    @property
    def passed(self):
        return self.sum_of_squares <= self.norm_sq + PASS_TOL


def bessel_check(vectors, f):
    """Finite Bessel inequality sum |<f, e>|^2 / ||e||^2 <= ||f||^2."""
    space = f.space
    for i, e_i in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            e_j = vectors[j]
            ip = inner(space, e_i, e_j)
            if abs(ip) > IDENTITY_TOL * max(1.0, e_i.norm2 * e_j.norm2):
                raise PreconditionError(
                    "family is not pairwise orthogonal: |<e_%d, e_%d>| = %.3g" % (i, j, abs(ip)))
    total = 0.0
    for e in vectors:
        nrm = e.norm2
        if nrm > 0:
            total += abs(inner(space, f, e)) ** 2 / nrm ** 2
    return BesselResult(sum_of_squares=total, norm_sq=f.norm2 ** 2)
