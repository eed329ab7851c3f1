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
from .groups import DENSE_LIMIT, PASS_TOL, ROW_BLOCK, plan

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
    vectors: object           # row g = values of e_g: an array, or CorrelationRows
    l2_bound: float           # recorded sup_g ||e_g||_2 upper bound


class CorrelationRows:
    """The rows e_g(x) = f2(g^-1 x) f3(g^-1 x g) of a correlation family,
    computed from the group's translates when read: no |G| x |G| array is held.

    rows[g] is row g, rows[gs] the stacked rows for an array gs, rows.take
    reads them as ndarray.take does, and np.asarray(rows) is every row.  Row
    g is f2[L] f3[R[L]], with L the row x -> g^-1 x and R the row y -> yg.
    """

    dtype, nbytes = np.dtype(np.complex128), 0

    def __init__(self, G, v2, v3):
        self.group, self._v2, self._v3 = G, v2, v3
        self.shape = (G.order, G.order)

    def take(self, gs, axis=0, out=None, mode="raise"):
        """The rows gs, into out when given.  axis and mode complete
        ndarray.take's signature: rows are taken along axis 0, and every g
        must be in range."""
        G, gs = self.group, np.asarray(gs)
        flat = gs.reshape(-1)
        if out is None:
            out = np.empty(gs.shape + (G.order,), dtype=np.complex128)
        rows, s = out.reshape(-1, G.order), 0
        for L, R in zip(G.translates(G.inv[flat]), G.translates(flat, right=True)):
            block = np.take(self._v2, L, out=rows[s:s + len(L)], mode="clip")
            block *= self._v3[np.take_along_axis(R, L, axis=1)]
            s += len(L)
        return out

    __getitem__ = take

    def __array__(self, dtype=None, copy=None):
        E = self.take(np.arange(self.shape[0]))
        return E if dtype is None else E.astype(dtype, copy=False)


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
    """The family e_g(x) = f2(g^-1 x) f3(g^-1 x g), one e_g per g of G, with
    its rows computed when read (CorrelationRows): on any group, of any order,
    it holds no |G| x |G| array."""
    _check_space(G, f2, "f2")
    _check_space(G, f3, "f3")
    return VectorFamily(group=G, space=f2.space, vectors=CorrelationRows(G, f2.values, f3.values),
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


def _row_blocks(E, gs):
    """The rows E[g], g in gs, in blocks of max(1, ROW_BLOCK // |G|) rows, each
    a view of one buffer that the next block overwrites: the one way
    vdc_check reads a family, stored (an ndarray) or computed."""
    B = max(1, ROW_BLOCK // E.shape[1])
    buf = np.empty((min(B, len(gs)), E.shape[1]), dtype=E.dtype)
    for s in range(0, len(gs), B):
        block = gs[s:s + B]
        # mode="clip": the default "raise" copies out first; indices are in range
        yield E.take(block, axis=0, out=buf[:len(block)], mode="clip")


def vdc_check(family, f, samples=None, seed=None):
    """Quantitative van der Corput: avg_g |<f, e_g>| <= sqrt(eps) ||f||_2
    with eps = avg_{g,h} |<e_g, e_gh>|.

    Exact for |G| <= 512, where the family is materialised for its Gram
    matrix (at most 4 MiB).  Above that a seeded (g, h) sample estimates
    eps (the inner products stay exact), and the left side averages every g
    up to |G| = DENSE_LIMIT, the sampled g above.  Rows are read in reused
    blocks of about 2^16 values: beside O(|G|) values and O(samples) indices
    the check holds a few blocks, however large the group or the sample.
    """
    G = family.group
    if f.space.size != family.space.size:
        raise SpaceMismatchError("f must live on the family's space")
    n = G.order
    E, w = family.vectors, family.space.weights
    u = np.conj(f.values) * w
    samples = plan("vdc", G.desc, n, samples, seed)
    every_g = samples is None or n <= DENSE_LIMIT
    # |conj <f, e_g>| for every g, or else for the sampled g in the loop below
    corr = [np.abs(rows @ u) for rows in _row_blocks(E, np.arange(n))] if every_g else []
    if samples is None:
        E = np.asarray(E)
        gram = (E * w) @ np.conj(E.T)       # gram[g, h'] = <e_g, e_h'>
        epsilon_lhs = float(np.abs(np.take_along_axis(gram, G.table, axis=1)).sum()) / (n * n)
    else:
        rng = np.random.default_rng(seed)
        gs = rng.integers(0, n, samples)
        hs = rng.integers(0, n, samples)
        vals = []
        for a, c in zip(_row_blocks(E, gs), _row_blocks(E, G.mul_pairs(gs, hs))):
            if not every_g:
                corr.append(np.abs(a @ u))
            np.multiply(a, w, out=a)        # the rows of e_g w conj(e_gh)
            vals.append(np.abs(np.sum(np.multiply(a, np.conj(c, out=c), out=a), axis=1)))
        epsilon_lhs = math.fsum(np.concatenate(vals)) / samples
    corr = np.concatenate(corr)
    rhs_integral = math.fsum(corr) / len(corr)
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
