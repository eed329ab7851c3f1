"""Triple recurrence error, its case decomposition (whose norm facts every
recurrence check verifies), and the van der Corput and Gram identity checks.

The triple correlation avg_x f1(x) f2(g^-1 x) f3(g^-1 x g) follows the
literal integral convention: no conjugation inside pointwise products;
conjugation appears only in the second slot of inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import SpaceMismatchError, cached_action, gather_blocks, orbit_means
from .characters import quasirandom_degree
from .groups import COLUMN_TILE, DENSE_LIMIT, PASS_TOL, average, compose_rows, draw, row_chunks

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
        """The check holds: the total, case (i) and case (ii) each within its
        bound, and the total within the sum of the two cases."""
        return (self.measured_total <= self.bound_total + PASS_TOL
                and self.measured_case_i <= self.bound_case_i + PASS_TOL
                and self.measured_case_ii <= self.bound_case_ii + PASS_TOL
                and self.decomposition_ok)

    @property
    def decomposition_ok(self):
        return self.measured_total <= self.measured_case_i + self.measured_case_ii + PASS_TOL


@dataclass
class VectorFamily:
    """A G-indexed family of observables e_g on a common space, read in
    blocks of rows through rows(gs)."""
    group: object
    space: object
    vectors: object           # row g = values of e_g: an array, or CorrelationRows

    def rows(self, gs):
        """The rows e_g for g in gs, in the blocks of row_chunks(gs, |X|), each
        a view of one buffer that the next block overwrites: the one way
        vdc_check reads a family.  A stored family's rows are gathered from its
        array, a correlation family's built from the group's translates."""
        gs, E = np.asarray(gs), self.vectors
        if isinstance(E, CorrelationRows):
            return _correlation_rows(E.group, E.v2, E.v3, gs)
        return (A for (A,) in gather_blocks(row_chunks(gs, self.space.size), E))


def _correlation_rows(G, v2, v3, gs):
    """The rows f2[L] f3[R[L]] for g in gs, with L the row x -> g^-1 x and R the
    row y -> yg, in blocks over the translates; per block the stream holds its
    two translates buffers and one output buffer."""
    buf = None
    for L, R in zip(G.translates(G.inv[gs]), G.translates(gs, right=True)):
        if buf is None:
            buf = np.empty(L.shape, dtype=np.complex128)
        block = np.take(v2, L, out=buf[:len(L)], mode="clip")
        block *= v3[compose_rows(L, R)]
        yield block


class CorrelationRows:
    """The values of a correlation family, e_g(x) = f2(g^-1 x) f3(g^-1 x g),
    held as f2 and f3 alone: VectorFamily.rows computes the rows when read.
    rows[g], one row, and nbytes = 0 remain for perfbench, whose worker reads
    family.vectors[g] and whose tracer reads vectors.nbytes."""

    nbytes = 0

    def __init__(self, G, v2, v3):
        self.group, self.v2, self.v3 = G, v2, v3

    def __getitem__(self, g):
        return next(_correlation_rows(self.group, self.v2, self.v3, [g]))[0]


@dataclass
class GramCheck:
    lhs: complex
    rhs: complex
    discrepancy: float


@dataclass
class VdcResult:
    epsilon_lhs: float
    rhs_integral: float
    bound: float
    mode: str = "exact"

    @property
    def passed(self):
        return self.rhs_integral <= self.bound + PASS_TOL


def _check_space(G, f, name):
    if f.space.size != G.order:
        raise SpaceMismatchError("%s must live on X = G (size %d)" % (name, G.order))


def triple_product_average(G, f1, f2, f3, g):
    """avg_x f1(x) f2(g^-1 x) f3(g^-1 x g), for one g: the tests' literal
    form, kept here because perfbench's tracer wraps it by name."""
    for f, name in ((f1, "f1"), (f2, "f2"), (f3, "f3")):
        _check_space(G, f, name)
    lrow, crow = (cached_action(G, kind).inv_row(g) for kind in ("left", "conjugation"))
    w = f1.space.weights
    return complex(np.sum(f1.values * f2.values[lrow] * f3.values[crow] * w))


def _column_tiles(n):
    """slice(0, n) cut into the fewest tiles of at most COLUMN_TILE columns, of
    near-equal length: one tile when n <= COLUMN_TILE."""
    count = -(-n // COLUMN_TILE)
    width = -(-n // count)
    return [slice(s, min(s + width, n)) for s in range(0, n, width)]


def _triple_errors(G, f1, f2, f3, gs, f3_inf):
    """Per-g total/case-i/case-ii deviations, averaged over gs (None: every g).

    With y = g^-1 x the triple average is avg_y f1(gy) f2(y) f3(yg), from the
    rows y -> gy and y -> yg, the group's translates.  Case i puts P_c f3
    for f3; P_c f3 is constant on classes and gy = g (yg) g^-1, so it reads
    avg_y h(gy) f2(y) with h = f1 P_c f3.  Case ii, with f3 - P_c f3, is the
    total less case i.  The case bounds rest on ||P_c f3||_inf <= ||f3||_inf
    (f3_inf) and ||f3 - P_c f3||_2 <= ||f3||_2: a PreconditionError if either
    fails.

    The group is read in column tiles of at most COLUMN_TILE values
    (_column_tiles): the reference term, the L2 guard and h are formed tile
    by tile from the orbit means, and each g's two sums add up over its
    tiles in order, from two complex tile buffers and one tile of u = f2 w
    that every g reuses.  With |G| <= COLUMN_TILE there is one tile, and every
    sum is the same expression over the whole group.  So beside its inputs a
    sampled call holds h, the two intp translate rows and those three tiles:
    about two complex |G|-long arrays and three tiles at its peak.
    """
    n = G.order
    mean_l, orbit_l = orbit_means(cached_action(G, "left"), f2)
    mean_c, orbit_c = orbit_means(cached_action(G, "conjugation"), f3)
    if float(np.max(np.abs(mean_c))) > f3_inf + NORM_TOL:
        raise PreconditionError("projection increased the L-infinity norm")
    w, w3, v1, v2, v3 = f1.space.weights, f3.space.weights, f1.values, f2.values, f3.values
    cols = _column_tiles(n)
    # the reference term avg f1 P_l f2 P_c f3, the squared L2 norms of
    # f3 - P_c f3 and of f3, and h = f1 P_c f3, tile by tile
    ref_tot, res2, norm2, h = 0, 0.0, 0.0, np.empty(n, dtype=np.complex128)
    for c in cols:
        pc3 = mean_c[orbit_c[c]]
        ref_tot += complex(np.sum(v1[c] * mean_l[orbit_l[c]] * pc3 * w[c]))
        res2 += float(np.sum(np.abs(v3[c] - pc3) ** 2 * w3[c]))
        norm2 += float(np.sum(np.abs(v3[c]) ** 2 * w3[c]))
        h[c] = v1[c] * pc3
    if math.sqrt(res2) > math.sqrt(norm2) + NORM_TOL:
        raise PreconditionError("projection residual increased the L2 norm")
    del pc3             # the g loop, where the peak sits, does not read it
    gs = np.arange(n) if gs is None else gs
    # the tile buffers: the first tile is the widest, and the first block of
    # rows the longest
    tot, case_i, bufs, u_col = [], [], None, None
    u_buf = np.empty(cols[0].stop, dtype=np.complex128)
    for L, R in zip(G.translates(gs), G.translates(gs, right=True)):
        if bufs is None:
            bufs = np.empty((2, L[:, cols[0]].size), dtype=np.complex128)
        block_tot = block_i = 0
        for c in cols:
            Lc = L[:, c]
            A1, A3 = (b[:Lc.size].reshape(Lc.shape) for b in bufs)
            if c is not u_col:      # with one tile, u is formed once
                u, u_col = np.multiply(v2[c], w[c], out=u_buf[:Lc.shape[1]]), c
            # mode="clip": the default "raise" copies out first; indices are in range
            np.take(v1, Lc, out=A1, mode="clip")
            np.take(v3, R[:, c], out=A3, mode="clip")
            block_tot = block_tot + np.einsum("ij,ij,j->i", A1, A3, u)
            np.take(h, Lc, out=A3, mode="clip")         # A3 now holds h(gy)
            block_i = block_i + np.einsum("ij,j->i", A3, u)
        tot.append(block_tot)
        case_i.append(block_i)
    tot, case_i = np.concatenate(tot), np.concatenate(case_i)
    return tuple(average(np.abs(d))[0] for d in (tot - ref_tot, case_i - ref_tot, tot - case_i))


def triple_recurrence_error(G, f1, f2, f3, mode="exact", samples=None, seed=None):
    """Average over g of |triple correlation - reference term|, with bounds.

    mode "exact" sums over every g; "monte_carlo" uses a seeded sample of
    g with exact inner sums.
    """
    fs = ((f1, "f1"), (f2, "f2"), (f3, "f3"))
    for f, name in fs:
        _check_space(G, f, name)
    norms = [f.norm_inf for f, _ in fs]
    for (_, name), norm in zip(fs, norms):
        if norm > 1.0 + NORM_TOL:
            raise PreconditionError("%s violates the L-infinity <= 1 precondition "
                                    "(norm %.6g)" % (name, norm))
    if mode not in ("exact", "monte_carlo"):
        raise ValueError("mode must be exact or monte_carlo")
    gs = draw("recurrence", G.desc, G.order, samples, seed,
              exact_max_order=G.order if mode == "exact" else 0)
    D = quasirandom_degree(G)
    eps = 1.0 / math.sqrt(D)
    total, case_i, case_ii = _triple_errors(G, f1, f2, f3, gs, norms[2])
    return RecurrenceReport(
        group=G.desc, D=D, epsilon=eps,
        bound_total=eps + math.sqrt(5.0 * eps),   # <= 4 sqrt(eps) on [0, 1]
        bound_case_i=eps, bound_case_ii=math.sqrt(5.0 * eps),
        measured_total=total, measured_case_i=case_i, measured_case_ii=case_ii,
        mode=mode, samples=None if gs is None else len(gs), seed=None if gs is None else seed)


def case_decomposition(G, f1, f2, f3, mode="exact", samples=None, seed=None):
    """(case i error, case ii error) for the split f3 = P_c f3 + (f3 - P_c f3):
    triple_recurrence_error's two cases, kept because perfbench's tracer
    wraps this by name."""
    rep = triple_recurrence_error(G, f1, f2, f3, mode, samples, seed)
    return rep.measured_case_i, rep.measured_case_ii


def correlation_family(G, f2, f3):
    """The family e_g(x) = f2(g^-1 x) f3(g^-1 x g), one e_g per g of G, with
    its rows computed when read (VectorFamily.rows): on any group, of any
    order, it holds no |G| x |G| array."""
    _check_space(G, f2, "f2")
    _check_space(G, f3, "f3")
    return VectorFamily(group=G, space=f2.space, vectors=CorrelationRows(G, f2.values, f3.values))


def gram_identity_check(G, f2, f3, g, h):
    """Both sides of int e_g e_gh dx = int F2^(h) (g .r F3^(h)) dx.

    F2^(h) = f2 (h .l f2), F3^(h) = f3 (h .c f3).  Both sides use the
    unconjugated pointwise pairing (the derivation is real-valued).
    """
    _check_space(G, f2, "f2")
    _check_space(G, f3, "f3")
    w, v2, v3 = f2.space.weights, f2.values, f3.values
    # f2 and f3 moved by g, gh and h (f2[L] and f3[R[L]]), and the right rows
    # R: one pass over the translates
    gs = [g, G.mul(g, h), h]
    blocks = [(v2[L], v3[compose_rows(L, R)], R.copy())
              for L, R in zip(G.translates(G.inv[gs]), G.translates(gs, right=True))]
    A2, A3, right = (np.concatenate(b) for b in zip(*blocks))
    e_g, e_gh = A2[:2] * A3[:2]
    lhs = complex(np.sum(e_g * e_gh * w))
    F2h, F3h = v2 * A2[2], v3 * A3[2]
    rhs = complex(np.sum(F2h * F3h[right[0]] * w))   # (g .r F)(x) = F(xg)
    return GramCheck(lhs=lhs, rhs=rhs, discrepancy=abs(lhs - rhs))


def vdc_check(family, f, samples=None, seed=None):
    """Quantitative van der Corput: avg_g |<f, e_g>| <= sqrt(eps) ||f||_2
    with eps = avg_{g,h} |<e_g, e_gh>|.

    Exact for |G| <= 512, where the family's row blocks are stacked for its
    Gram matrix (at most 4 MiB).  Above that a seeded (g, h) sample
    estimates eps (the inner products stay exact), and the left side
    averages every g up to |G| = DENSE_LIMIT, the sampled g above.  Rows
    are read only through family.rows, in reused blocks of about ROW_BLOCK
    values: beside O(|G|) values and O(samples) indices the check holds a
    few blocks, however large the group or the sample.
    """
    G = family.group
    if f.space.size != family.space.size:
        raise SpaceMismatchError("f must live on the family's space")
    n = G.order
    w = family.space.weights
    u = np.conj(f.values) * w
    pairs = draw("vdc", G.desc, n, samples, seed)
    every_g = pairs is None or n <= DENSE_LIMIT
    # |conj <f, e_g>| for every g, or else for the sampled g in the loop below
    corr = [np.abs(rows @ u) for rows in family.rows(np.arange(n))] if every_g else []
    if pairs is None:
        E = np.concatenate([rows.copy() for rows in family.rows(np.arange(n))])
        gram = (E * w) @ np.conj(E.T)       # gram[g, h'] = <e_g, e_h'>
        epsilon_lhs = float(np.abs(gram[np.arange(n)[:, None], G.table]).sum()) / (n * n)
    else:
        gs, hs = pairs
        vals = []
        for a, c in zip(family.rows(gs), family.rows(G.mul_pairs(gs, hs))):
            if not every_g:
                corr.append(np.abs(a @ u))
            np.multiply(a, w, out=a)        # the rows of e_g w conj(e_gh)
            vals.append(np.abs(np.sum(np.multiply(a, np.conj(c, out=c), out=a), axis=1)))
        epsilon_lhs = average(np.concatenate(vals))[0]
    rhs_integral = average(np.concatenate(corr))[0]
    bound = math.sqrt(epsilon_lhs) * f.norm2
    return VdcResult(epsilon_lhs=epsilon_lhs, rhs_integral=rhs_integral, bound=bound,
                     mode="exact" if pairs is None else "monte_carlo")

