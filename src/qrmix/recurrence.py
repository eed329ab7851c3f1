"""Triple recurrence error, its case decomposition, and the van der Corput
and Bessel inequality checks.

The triple correlation avg_x f1(x) f2(g^-1 x) f3(g^-1 x g) follows the
literal integral convention: no conjugation inside pointwise products;
conjugation appears only in the second slot of inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import (
    Observable,
    SpaceMismatchError,
    cached_action,
    inner,
    invariant_projection,
)
from .characters import quasirandom_degree
from .groups import DENSE_LIMIT

PASS_TOL = 1e-9
IDENTITY_TOL = 1e-10
NORM_TOL = 1e-12
VDC_EXACT_MAX = 512


class PreconditionError(ValueError):
    pass


@dataclass
class RecurrenceReport:
    group: str
    D: float
    epsilon: float
    bound_total: float
    bound_case_i: float
    bound_case_ii: float
    measured_total: float
    measured_case_i: float
    measured_case_ii: float
    mode: str
    samples: int = None
    seed: int = None

    @property
    def passed(self):
        return self.measured_total <= self.bound_total + PASS_TOL

    @property
    def decomposition_ok(self):
        return self.measured_total <= self.measured_case_i + self.measured_case_ii + PASS_TOL


@dataclass
class VectorFamily:
    """A G-indexed family of observables e_g on a common space."""
    group: object
    space: object
    vectors: np.ndarray       # row g = values of e_g
    l2_bound: float           # recorded sup_g ||e_g||_2 upper bound

    def observable(self, g):
        return Observable(self.space, self.vectors[g])


@dataclass
class GramCheck:
    lhs: complex
    rhs: complex
    discrepancy: float
    pairing: str = "unconjugated"


@dataclass
class VdcResult:
    epsilon_lhs: float
    rhs_integral: float
    bound: float
    mode: str = "exact"

    @property
    def passed(self):
        return self.rhs_integral <= self.bound + PASS_TOL


@dataclass
class BesselResult:
    sum_of_squares: float
    norm_sq: float

    @property
    def passed(self):
        return self.sum_of_squares <= self.norm_sq + PASS_TOL


def _check_space(G, f, name):
    if f.space.size != G.order:
        raise SpaceMismatchError("%s must live on X = G (size %d)" % (name, G.order))


def _triple_rows(G):
    """g -> (x -> g^-1 x, x -> g^-1 x g): the left action's row, and the
    right action's row composed with it."""
    left, right = cached_action(G, "left"), cached_action(G, "right")

    def rows(g):
        lrow = left.inv_row(g)
        return lrow, right.inv_row(g)[lrow]
    return rows


def triple_product_average(G, f1, f2, f3, g):
    """avg_x f1(x) f2(g^-1 x) f3(g^-1 x g)."""
    for f, name in ((f1, "f1"), (f2, "f2"), (f3, "f3")):
        _check_space(G, f, name)
    lrow, crow = _triple_rows(G)(g)
    w = f1.space.weights
    return complex(np.sum(f1.values * f2.values[lrow] * f3.values[crow] * w))


def _triple_errors(G, f1, f2, f3, gs):
    """Per-g total/case-i/case-ii deviations, averaged over gs.

    Shares the translation rows between the three integrands; case i
    replaces f3 by P_c f3, case ii by f3 - P_c f3.
    """
    pl2 = invariant_projection(cached_action(G, "left"), f2)
    pc3 = invariant_projection(cached_action(G, "conjugation"), f3)
    w = f1.space.weights
    v1, v2, v3 = f1.values, f2.values, f3.values
    v3i = pc3.values
    v3ii = v3 - v3i
    ref_tot = complex(np.sum(v1 * pl2.values * v3i * w))
    if gs is None:
        gs = range(G.order)
    rows = _triple_rows(G)
    tot = np.empty(len(gs))
    case_i = np.empty(len(gs))
    case_ii = np.empty(len(gs))
    for t, g in enumerate(gs):
        lrow, crow = rows(int(g))
        base = v1 * v2[lrow] * w
        tot[t] = abs(complex(np.sum(base * v3[crow])) - ref_tot)
        case_i[t] = abs(complex(np.sum(base * v3i[crow])) - ref_tot)
        case_ii[t] = abs(complex(np.sum(base * v3ii[crow])))
    m = len(gs)
    return (math.fsum(tot) / m, math.fsum(case_i) / m, math.fsum(case_ii) / m, pc3)


def _triple_gs(G, f1, f2, f3, mode, samples, seed):
    """Check a triple's inputs; the g to average over (None: every g)."""
    fs = ((f1, "f1"), (f2, "f2"), (f3, "f3"))
    for f, name in fs:
        _check_space(G, f, name)
    for f, name in fs:
        if f.norm_inf > 1.0 + NORM_TOL:
            raise PreconditionError("%s violates the L-infinity <= 1 precondition "
                                    "(norm %.6g)" % (name, f.norm_inf))
    if mode == "exact":
        return None
    if mode != "monte_carlo":
        raise ValueError("mode must be exact or monte_carlo")
    if samples is None or seed is None:
        raise ValueError("monte_carlo mode needs samples and seed")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return np.random.default_rng(seed).integers(0, G.order, samples)


def triple_recurrence_error(G, f1, f2, f3, mode="exact", samples=None, seed=None):
    """Average over g of |triple correlation - reference term|, with bounds.

    mode "exact" sums over every g; "monte_carlo" uses a seeded sample of
    g with exact inner sums.
    """
    gs = _triple_gs(G, f1, f2, f3, mode, samples, seed)
    D = quasirandom_degree(G)
    eps = 1.0 / math.sqrt(D)
    total, case_i, case_ii, _ = _triple_errors(G, f1, f2, f3, gs)
    return RecurrenceReport(
        group=G.desc,
        D=D,
        epsilon=eps,
        bound_total=min(eps + math.sqrt(5.0 * eps), 4.0 * math.sqrt(eps)),
        bound_case_i=eps,
        bound_case_ii=math.sqrt(5.0 * eps),
        measured_total=total,
        measured_case_i=case_i,
        measured_case_ii=case_ii,
        mode=mode,
        samples=None if gs is None else len(gs),
        seed=seed,
    )


def case_decomposition(G, f1, f2, f3, mode="exact", samples=None, seed=None):
    """(case i error, case ii error) for the split f3 = P_c f3 + (f3 - P_c f3).

    Also verifies the norm facts the decomposition relies on:
    ||P_c f3||_inf <= ||f3||_inf and ||f3 - P_c f3||_2 <= ||f3||_2.
    """
    gs = _triple_gs(G, f1, f2, f3, mode, samples, seed)
    _, case_i, case_ii, pc3 = _triple_errors(G, f1, f2, f3, gs)
    if pc3.norm_inf > f3.norm_inf + NORM_TOL:
        raise PreconditionError("projection increased the L-infinity norm")
    if (f3 - pc3).norm2 > f3.norm2 + NORM_TOL:
        raise PreconditionError("projection residual increased the L2 norm")
    return case_i, case_ii


def correlation_family(G, f2, f3):
    """e_g(x) = f2(g^-1 x) f3(g^-1 x g) for every g.

    The family is a dense |G| x |G| array, so groups above DENSE_LIMIT,
    which carry no dense table either, are refused before allocating it.
    """
    _check_space(G, f2, "f2")
    _check_space(G, f3, "f3")
    n = G.order
    if n > DENSE_LIMIT:
        raise PreconditionError(
            "correlation family of %s (|G| = %d) needs a |G| x |G| complex array "
            "of %d bytes; only groups of order <= %d are supported"
            % (G.desc, n, n * n * 16, DENSE_LIMIT))
    E = np.empty((n, n), dtype=np.complex128)
    rows = _triple_rows(G)
    for g in range(n):
        lrow, crow = rows(g)
        E[g] = f2.values[lrow] * f3.values[crow]
    return VectorFamily(group=G, space=f2.space, vectors=E,
                        l2_bound=f2.norm_inf * f3.norm_inf)


def gram_identity_check(G, f2, f3, g, h):
    """Both sides of int e_g e_gh dx = int F2^(h) (g .r F3^(h)) dx.

    F2^(h) = f2 (h .l f2), F3^(h) = f3 (h .c f3).  Both sides use the
    unconjugated pointwise pairing (the derivation is real-valued); the
    result records the pairing.
    """
    _check_space(G, f2, "f2")
    _check_space(G, f3, "f3")
    w = f2.space.weights
    rows = _triple_rows(G)
    lg, cg = rows(g)
    lgh, cgh = rows(G.mul(g, h))
    e_g = f2.values[lg] * f3.values[cg]
    e_gh = f2.values[lgh] * f3.values[cgh]
    lhs = complex(np.sum(e_g * e_gh * w))
    lh, ch = rows(h)
    F2h = f2.values * f2.values[lh]
    F3h = f3.values * f3.values[ch]
    xg = cached_action(G, "right").inv_row(g)  # (g .r F)(x) = F(xg)
    rhs = complex(np.sum(F2h * F3h[xg] * w))
    return GramCheck(lhs=lhs, rhs=rhs, discrepancy=abs(lhs - rhs))


def vdc_check(family, f, samples=None, seed=None):
    """Quantitative van der Corput: avg_g |<f, e_g>| <= sqrt(eps) ||f||_2
    with eps = avg_{g,h} |<e_g, e_gh>|.

    Exact for |G| <= 512; above that a seeded (g, h) sample estimates the
    double average (the inner products stay exact).
    """
    G = family.group
    if f.space.size != family.space.size:
        raise SpaceMismatchError("f must live on the family's space")
    n = G.order
    E = family.vectors
    weighted = E * family.space.weights[None, :]
    corr = np.abs(np.conj(E) @ (f.values * family.space.weights))  # |<f, e_g>|
    rhs_integral = math.fsum(corr) / n
    if n <= VDC_EXACT_MAX:
        gram = weighted @ np.conj(E.T)      # gram[g, h'] = <e_g, e_h'>
        gh = G.mul_pairs(np.repeat(np.arange(n), n), np.tile(np.arange(n), n))
        vals = np.abs(gram[np.repeat(np.arange(n), n), gh])
        epsilon_lhs = float(vals.sum()) / (n * n)
        mode = "exact"
    else:
        if samples is None or seed is None:
            raise ValueError("groups above order %d need samples and seed" % VDC_EXACT_MAX)
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = np.random.default_rng(seed)
        gs = rng.integers(0, n, samples)
        hs = rng.integers(0, n, samples)
        ghs = G.mul_pairs(gs, hs)
        vals = np.abs(np.sum(weighted[gs] * np.conj(E[ghs]), axis=1))
        epsilon_lhs = math.fsum(vals) / samples
        mode = "monte_carlo"
    bound = math.sqrt(epsilon_lhs) * f.norm2
    return VdcResult(epsilon_lhs=epsilon_lhs, rhs_integral=rhs_integral, bound=bound, mode=mode)


def bessel_check(vectors, f, ortho_tol=IDENTITY_TOL):
    """Finite Bessel inequality sum |<f, e>|^2 / ||e||^2 <= ||f||^2."""
    space = f.space
    for i, e_i in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            e_j = vectors[j]
            ip = inner(space, e_i, e_j)
            if abs(ip) > ortho_tol * max(1.0, e_i.norm2 * e_j.norm2):
                raise PreconditionError(
                    "family is not pairwise orthogonal: |<e_%d, e_%d>| = %.3g" % (i, j, abs(ip)))
    total = 0.0
    for e in vectors:
        nrm = e.norm2
        if nrm > 0:
            total += abs(inner(space, f, e)) ** 2 / nrm ** 2
    return BesselResult(sum_of_squares=total, norm_sq=f.norm2 ** 2)
