"""Independent reference implementations used as test oracles.

Everything here recomputes quantities from first principles (brute-force
enumeration, dense float linear algebra) without touching the package's own
algorithms beyond the element-index interface.
"""

import importlib.util
import itertools
import math
import os
import sys

import numpy as np

from qrmix import conjugacy_classes


_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def perfbench_module(name):
    """perfbench/<name>.py, loaded read-only by path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  os.path.join(_PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


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


def degrees_by_eigen_multiplicity(G, seed=12345):
    """Character degrees from eigenvalue multiplicities of a generic central
    element acting on C[G] by right multiplication.

    The regular representation splits into isotypic components of dimension
    d^2 on which any central element acts as a scalar, so for generic class
    weights the multiplicity of each eigenvalue is d^2.
    """
    n = G.order
    C = conjugacy_classes(G)
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.0, 2.0, C.k) + 1j * rng.uniform(1.0, 2.0, C.k)
    xs = np.arange(n, dtype=np.int64)
    M = np.zeros((n, n), dtype=np.complex128)
    for g in range(n):
        M[xs, G.vec_mul(xs, g)] += t[C.class_of[g]]
    eig = np.sort_complex(np.linalg.eigvals(M))
    degrees = []
    i = 0
    while i < n:
        j = i
        while j < n and abs(eig[j] - eig[i]) < 1e-6:
            j += 1
        d = math.isqrt(j - i)
        assert d * d == j - i, "multiplicity %d is not a perfect square" % (j - i)
        degrees.append(d)
        i = j
    return tuple(sorted(degrees))


def dihedral_degrees(n):
    """Degrees of the dihedral group of order 2n: for n odd, 2 ones and
    (n - 1)/2 twos; for n even, 4 ones and (n - 2)/2 twos."""
    if n % 2:
        return (1,) * 2 + (2,) * ((n - 1) // 2)
    return (1,) * 4 + (2,) * ((n - 2) // 2)


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
