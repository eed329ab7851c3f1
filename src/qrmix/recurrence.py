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

from .actions import SpaceMismatchError, cached_action, gather_blocks, inner, invariant_projection
from .characters import quasirandom_degree
from .groups import PASS_TOL, ROW_BLOCK, plan

IDENTITY_TOL = 1e-10
NORM_TOL = 1e-12


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


def triple_product_average(G, f1, f2, f3, g):
    """avg_x f1(x) f2(g^-1 x) f3(g^-1 x g)."""
    for f, name in ((f1, "f1"), (f2, "f2"), (f3, "f3")):
        _check_space(G, f, name)
    lrow, crow = (cached_action(G, kind).inv_row(g) for kind in ("left", "conjugation"))
    w = f1.space.weights
    return complex(np.sum(f1.values * f2.values[lrow] * f3.values[crow] * w))


def _triple_errors(G, f1, f2, f3, gs):
    """Per-g total/case-i/case-ii deviations, averaged over gs (None: every g).

    With y = g^-1 x the triple average is avg_y f1(gy) f2(y) f3(yg), from the
    rows y -> gy and y -> yg, the group's translates.  Case i puts P_c f3
    for f3; P_c f3 is constant on classes and gy = g (yg) g^-1, so it reads
    avg_y h(gy) f2(y) with h = f1 P_c f3.  Case ii, with f3 - P_c f3, is the
    total less case i.
    """
    pl2 = invariant_projection(cached_action(G, "left"), f2)
    pc3 = invariant_projection(cached_action(G, "conjugation"), f3)
    w = f1.space.weights
    v1 = f1.values
    ref_tot = complex(np.sum(v1 * pl2.values * pc3.values * w))
    u, h = f2.values * w, v1 * pc3.values
    gs = np.arange(G.order) if gs is None else gs
    blocks = zip(gather_blocks(G.translates(gs), v1, h),
                 gather_blocks(G.translates(gs, right=True), f3.values))
    tot, case_i = np.concatenate([(np.einsum("ij,ij,j->i", A1, A3, u), np.einsum("ij,j->i", Ah, u))
                                  for (A1, Ah), (A3,) in blocks], axis=1)
    m = len(gs)
    return (math.fsum(np.abs(tot - ref_tot)) / m, math.fsum(np.abs(case_i - ref_tot)) / m,
            math.fsum(np.abs(tot - case_i)) / m, pc3)


def _triple_gs(G, f1, f2, f3, mode, samples, seed):
    """Check a triple's inputs; the g to average over (None: every g)."""
    fs = ((f1, "f1"), (f2, "f2"), (f3, "f3"))
    for f, name in fs:
        _check_space(G, f, name)
    for f, name in fs:
        if f.norm_inf > 1.0 + NORM_TOL:
            raise PreconditionError("%s violates the L-infinity <= 1 precondition "
                                    "(norm %.6g)" % (name, f.norm_inf))
    if mode not in ("exact", "monte_carlo"):
        raise ValueError("mode must be exact or monte_carlo")
    samples = plan("recurrence", G.desc, G.order, samples, seed,
                   exact_max_order=G.order if mode == "exact" else 0)
    return None if samples is None else np.random.default_rng(seed).integers(0, G.order, samples)


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
        seed=None if gs is None else seed,
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
    """e_g(x) = f2(g^-1 x) f3(g^-1 x g) for every g, as a dense |G| x |G|
    array: refused before it is allocated on groups without a dense table.
    Row g is f2[L] f3[R[L]], with L the row x -> g^-1 x and R the row y -> yg."""
    _check_space(G, f2, "f2")
    _check_space(G, f3, "f3")
    n = G.order
    plan("family", G.desc, n)
    E = np.empty((n, n), dtype=np.complex128)
    s = 0
    for L, R in zip(G.translates(G.inv), G.translates(np.arange(n), right=True)):
        np.multiply(f2.values[L], f3.values[np.take_along_axis(R, L, axis=1)], out=E[s:s + len(L)])
        s += len(L)
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
    w, v2, v3 = f2.space.weights, f2.values, f3.values
    left, conj = cached_action(G, "left"), cached_action(G, "conjugation")
    e_g = v2[left.inv_row(g)] * v3[conj.inv_row(g)]
    gh = G.mul(g, h)
    e_gh = v2[left.inv_row(gh)] * v3[conj.inv_row(gh)]
    lhs = complex(np.sum(e_g * e_gh * w))
    F2h = v2 * v2[left.inv_row(h)]
    F3h = v3 * v3[conj.inv_row(h)]
    xg = cached_action(G, "right").inv_row(g)  # (g .r F)(x) = F(xg)
    rhs = complex(np.sum(F2h * F3h[xg] * w))
    return GramCheck(lhs=lhs, rhs=rhs, discrepancy=abs(lhs - rhs))


def vdc_check(family, f, samples=None, seed=None):
    """Quantitative van der Corput: avg_g |<f, e_g>| <= sqrt(eps) ||f||_2
    with eps = avg_{g,h} |<e_g, e_gh>|.

    Exact for |G| <= 512; above that a seeded (g, h) sample estimates the
    double average (the inner products stay exact).  Beside the family it
    holds O(|G|) values and, when sampled, O(samples) indices and two reused
    blocks of rows, about 2^16 complex values each; the exact branch adds
    the Gram matrix and a weighted copy of the family, at most 4 MiB each.
    """
    G = family.group
    if f.space.size != family.space.size:
        raise SpaceMismatchError("f must live on the family's space")
    n = G.order
    E, w = family.vectors, family.space.weights
    corr = np.abs(E @ (np.conj(f.values) * w))  # |conj <f, e_g>|
    rhs_integral = math.fsum(corr) / n
    samples = plan("vdc", G.desc, n, samples, seed)
    if samples is None:
        gram = (E * w) @ np.conj(E.T)       # gram[g, h'] = <e_g, e_h'>
        epsilon_lhs = float(np.abs(np.take_along_axis(gram, G.table, axis=1)).sum()) / (n * n)
    else:
        rng = np.random.default_rng(seed)
        gs = rng.integers(0, n, samples)
        hs = rng.integers(0, n, samples)
        ghs = G.mul_pairs(gs, hs)
        B = max(1, ROW_BLOCK // n)
        vals, (A, C) = np.empty(samples), np.empty((2, min(B, samples), n), dtype=np.complex128)
        for s in range(0, samples, B):     # the rows of e_g w conj(e_gh), B pairs at a time
            g, gh = gs[s:s + B], ghs[s:s + B]
            a, c = A[:len(g)], C[:len(g)]
            np.multiply(np.take(E, g, axis=0, out=a, mode="clip"), w, out=a)
            np.conj(np.take(E, gh, axis=0, out=c, mode="clip"), out=c)
            vals[s:s + B] = np.abs(np.sum(np.multiply(a, c, out=a), axis=1))
        epsilon_lhs = math.fsum(vals) / samples
    bound = math.sqrt(epsilon_lhs) * f.norm2
    return VdcResult(epsilon_lhs=epsilon_lhs, rhs_integral=rhs_integral, bound=bound,
                     mode="exact" if samples is None else "monte_carlo")


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
