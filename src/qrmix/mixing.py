"""The epsilon-mixing error functional and the D^(-1/2) bound checks.

measured = avg_g | <f1, g . f2> - <P f1, P f2> |, exactly for small groups
and by a seeded Monte Carlo estimate over g above the exact-mode cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import (Observable, SpaceMismatchError, cached_action, gather_blocks, inner,
                      invariant_projection, random_observable)
from .characters import quasirandom_degree
from .groups import EXACT_MAX_ORDER, PASS_TOL, average, draw, plan
from .seeding import derive_seed


@dataclass
class MixingReport:
    group: str
    action: str
    D: float
    epsilon: float            # D^(-1/2)
    bound: float
    measured: float
    mode: str                 # "exact" | "monte_carlo"
    trial: int = 0
    samples: int = None
    seed: int = None          # the seed of the sampled g; None when exact
    ci_halfwidth: float = None

    @property
    def passed(self):
        return self.measured <= self.bound + PASS_TOL


def _pair_correlations(a, f1, f2, gs=None):
    """<f1, g . f2> = sum_x u(x) conj f2(g^-1 . x), u = f1 nu, for each g in gs
    (every g when None), from the action's row blocks.  Conjugation puts
    y = g^-1 x: sum_y u(gy) conj f2(yg), from the rows y -> gy and y -> yg."""
    u = f1.values * a.space.weights
    c2 = np.conj(f2.values)
    G = a.group
    gs = np.arange(G.order) if gs is None else gs
    if a.kind == "conjugation":
        blocks = zip(gather_blocks(G.translates(gs), u), gather_blocks(G.translates(gs, right=True), c2))
        return np.concatenate([np.einsum("ij,ij->i", U, C) for (U,), (C,) in blocks])
    return np.concatenate([np.einsum("ij,j->i", C, u) for (C,) in gather_blocks(a.inv_rows(gs), c2)])


def mixing_error(a, f1, f2):
    """Exact value of the mixing error functional for the action a."""
    if f1.space.size != a.space.size or f2.space.size != a.space.size:
        raise SpaceMismatchError("observables not on the action's space")
    ref = inner(a.space, invariant_projection(a, f1), invariant_projection(a, f2))
    return average(np.abs(_pair_correlations(a, f1, f2) - ref))[0]


def monte_carlo_mixing_error(a, f1, f2, samples, seed):
    """Seeded estimate of the mixing error; returns (estimate, ci_halfwidth)."""
    gs = draw("mixing", a.group.desc, a.group.order, samples, seed, exact_max_order=0)
    ref = inner(a.space, invariant_projection(a, f1), invariant_projection(a, f2))
    return average(np.abs(_pair_correlations(a, f1, f2, gs) - ref))


def mixing_bound_check(G, kind, trials, seed, mc_samples=2000, exact_max_order=EXACT_MAX_ORDER):
    """Check measured <= D^(-1/2) ||f1||_2 ||f2||_2 on seeded random pairs."""
    D = quasirandom_degree(G)
    eps = 1.0 / math.sqrt(D)
    a = cached_action(G, kind)
    samples = plan("mixing", G.desc, G.order, mc_samples, seed, exact_max_order)
    reports = []
    for t in range(trials):
        f1 = random_observable(a.space, derive_seed(seed, G.desc, kind, t, "f1"))
        f2 = random_observable(a.space, derive_seed(seed, G.desc, kind, t, "f2"))
        mc_seed = None if samples is None else derive_seed(seed, G.desc, kind, t, "mc")
        measured, ci = ((mixing_error(a, f1, f2), None) if samples is None else
                        monte_carlo_mixing_error(a, f1, f2, samples, mc_seed))
        reports.append(MixingReport(G.desc, kind, D, eps, eps * f1.norm2 * f2.norm2, measured,
                                    "exact" if samples is None else "monte_carlo", trial=t,
                                    samples=samples, seed=mc_seed, ci_halfwidth=ci))
    return reports


def reduction_identity_check(a, f1, f2, gs):
    """Both sides of <f1, g.f2>_X = int_X <f1^(x), g.r f2^(x)>_G dnu(x).

    The left side reads g . f2 from the action's rows in one pass.  The right
    side builds the fiber observables f^(x)(h) = f(h^-1 . x) once per call and
    pairs them under the right translation h -> hg, an independent code path.
    Returns (lhs, rhs, discrepancy) for one g, and a list of them when gs is a
    sequence.
    """
    G = a.group
    M = a.inv_rows_matrix()           # M[h, x] = h^-1 . x
    F1 = f1.values[M]                 # column x is the fiber f1^(x) on G
    F2 = f2.values[M]
    g_all = np.atleast_1d(gs)
    moved = (row for (A,) in gather_blocks(a.inv_rows(g_all), f2.values) for row in A)
    sigmas = (row for S in G.translates(g_all, right=True) for row in S)
    out = []
    for gf2, sigma in zip(moved, sigmas):
        lhs = inner(a.space, f1, Observable(f2.space, gf2))
        T = F1 * np.conj(F2[sigma]) * a.space.weights[None, :]
        rhs = complex(T.sum()) / G.order
        out.append((lhs, rhs, abs(lhs - rhs)))
    return out if np.ndim(gs) else out[0]
