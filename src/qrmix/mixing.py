"""The epsilon-mixing error functional and the D^(-1/2) bound checks.

measured = avg_g | <f1, g . f2> - <P f1, P f2> |, exactly for small groups
and by a seeded Monte Carlo estimate over g above the exact-mode cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import SpaceMismatchError, cached_action, inner, invariant_projection, random_observable
from .characters import quasirandom_degree
from .seeding import derive_seed

EXACT_MAX_ORDER = 3000
PASS_TOL = 1e-9
CI_Z = 2.58  # 99% normal confidence


@dataclass
class MixingReport:
    group: str
    action: str
    D: float
    bound: float
    measured: float
    mode: str                 # "exact" | "monte_carlo"
    trial: int = 0
    samples: int = None
    seed: int = None
    ci_halfwidth: float = None

    @property
    def passed(self):
        return self.measured <= self.bound + PASS_TOL


def _pair_correlations(a, f1, f2, gs=None):
    """<f1, g . f2> for each g (all g when gs is None)."""
    w = f1.values * a.space.weights
    c2 = np.conj(f2.values)
    if gs is None:
        M = a.inv_rows_matrix()
        return c2[M] @ w
    out = np.empty(len(gs), dtype=np.complex128)
    for t, g in enumerate(gs):
        row = a.inv_row(int(g))
        out[t] = c2[row] @ w
    return out


def mixing_error(a, f1, f2):
    """Exact value of the mixing error functional for the action a."""
    if f1.space.size != a.space.size or f2.space.size != a.space.size:
        raise SpaceMismatchError("observables not on the action's space")
    ref = inner(a.space, invariant_projection(a, f1), invariant_projection(a, f2))
    diffs = np.abs(_pair_correlations(a, f1, f2) - ref)
    return math.fsum(diffs) / a.group.order


def monte_carlo_mixing_error(a, f1, f2, samples, seed):
    """Seeded estimate of the mixing error; returns (estimate, ci_halfwidth)."""
    if samples < 30:
        raise ValueError("samples must be >= 30")
    ref = inner(a.space, invariant_projection(a, f1), invariant_projection(a, f2))
    rng = np.random.default_rng(seed)
    gs = rng.integers(0, a.group.order, samples)
    diffs = np.abs(_pair_correlations(a, f1, f2, gs) - ref)
    estimate = math.fsum(diffs) / samples
    sd = float(np.std(diffs, ddof=1))
    return estimate, CI_Z * sd / math.sqrt(samples)


def mixing_bound_check(G, kind, trials, seed, mc_samples=2000, exact_max_order=EXACT_MAX_ORDER):
    """Check measured <= D^(-1/2) ||f1||_2 ||f2||_2 on seeded random pairs."""
    D = quasirandom_degree(G)
    eps = 1.0 / math.sqrt(D)
    a = cached_action(G, kind)
    exact = G.order <= exact_max_order
    reports = []
    for t in range(trials):
        f1 = random_observable(a.space, derive_seed(seed, G.desc, kind, t, "f1"))
        f2 = random_observable(a.space, derive_seed(seed, G.desc, kind, t, "f2"))
        bound = eps * f1.norm2 * f2.norm2
        if exact:
            measured = mixing_error(a, f1, f2)
            reports.append(MixingReport(G.desc, kind, D, bound, measured, "exact", trial=t, seed=seed))
        else:
            est, ci = monte_carlo_mixing_error(a, f1, f2, mc_samples,
                                               derive_seed(seed, G.desc, kind, t, "mc"))
            reports.append(MixingReport(G.desc, kind, D, bound, est, "monte_carlo",
                                        trial=t, samples=mc_samples, seed=seed, ci_halfwidth=ci))
    return reports


def reduction_identity_check(a, f1, f2, g):
    """Both sides of <f1, g.f2>_X = int_X <f1^(x), g.r f2^(x)>_G dnu(x).

    The right side builds the fiber observables f^(x)(h) = f(h^-1 . x)
    explicitly and pairs them under the right translation, an independent
    code path from the left side.
    """
    from .actions import koopman_apply  # local import avoids a cycle at module load

    G = a.group
    lhs = inner(a.space, f1, koopman_apply(a, g, f2))
    M = a.inv_rows_matrix()           # M[h, x] = h^-1 . x
    F1 = f1.values[M]                 # column x is the fiber f1^(x) on G
    F2 = f2.values[M]
    sigma = G.vec_mul(np.arange(G.order, dtype=np.int64), int(g))  # h -> hg
    T = F1 * np.conj(F2[sigma]) * a.space.weights[None, :]
    rhs = complex(T.sum()) / G.order
    return lhs, rhs, abs(lhs - rhs)
