"""Measure-preserving actions on finite probability spaces.

Implements the Koopman operator (g . f)(x) = f(g^-1 . x), the L2 inner
product (conjugate-linear in the second slot), and the invariant
projection given by averaging the Koopman translates over the group.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import compose_rows, conjugacy_classes, row_chunks

_WEIGHT_TOL = 1e-12


class SpaceMismatchError(ValueError):
    pass


class ActionValidationError(ValueError):
    pass


class ProbabilitySpace:
    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or np.any(w < 0):
            raise ValueError("weights must be a 1-d array of non-negative reals")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within %g" % _WEIGHT_TOL)
        self.weights = w
        self.size = len(w)

    @classmethod
    def uniform(cls, n):
        """The uniform measure on n points.  Its weights are one float 1/n
        broadcast to n entries (stride 0, read-only): every operation reads
        the same values as from a full array, and the space costs no 8n bytes."""
        return cls(np.broadcast_to(1.0 / n, n))

    def __eq__(self, other):
        return isinstance(other, ProbabilitySpace) and np.array_equal(self.weights, other.weights)


class Observable:
    """A complex-valued function on a finite probability space."""

    def __init__(self, space, values):
        v = np.asarray(values, dtype=np.complex128)
        if v.shape != (space.size,):
            raise SpaceMismatchError("observable has %d values for a space of size %d"
                                     % (v.size, space.size))
        self.space = space
        self.values = v

    @property
    def norm2(self):
        return math.sqrt(float(np.sum(np.abs(self.values) ** 2 * self.space.weights)))

    @property
    def norm_inf(self):
        return float(np.max(np.abs(self.values))) if self.space.size else 0.0

    def __mul__(self, other):
        if isinstance(other, Observable):
            if other.space is not self.space and other.space != self.space:
                raise SpaceMismatchError("pointwise product across different spaces")
            return Observable(self.space, self.values * other.values)
        return Observable(self.space, self.values * other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return Observable(self.space, self.values - other.values)


def inner(space, f1, f2):
    """<f1, f2> = sum_x f1(x) conj(f2(x)) nu(x), compensated fixed-order sum."""
    if f1.space.size != space.size or f2.space.size != space.size:
        raise SpaceMismatchError("inner product across mismatched spaces")
    t = f1.values * np.conj(f2.values) * space.weights
    return complex(math.fsum(t.real), math.fsum(t.imag))


BUILT_IN = ("left", "right", "conjugation")
KINDS = BUILT_IN + ("custom",)


class ActionTable:
    """An action of a group on a finite probability space.

    Built-in kinds act on X = G: left g.x = gx, right g.x = x g^-1,
    conjugation g.x = g x g^-1.  Custom actions supply an explicit
    (|G|, |X|) table of act(g, x) and are validated at build time.  An int64
    table is kept as it is, not copied: the action reads the caller's array,
    which must not change while the action is in use.  Rows come from
    inv_rows, in blocks, on groups with or without a dense table.
    """

    def __init__(self, group, space, kind, rows=None):
        if kind not in KINDS:
            raise ValueError("unknown action kind %r" % kind)
        self.group = group
        self.space = space
        self.kind = kind
        self._rows = None
        self._orbit_of = None
        if kind == "custom":
            rows = np.asarray(rows)
            if rows.shape != (group.order, space.size):
                raise ActionValidationError("rows must have shape (|G|, |X|)")
            self._rows = rows.astype(np.int64, copy=False)
            self._validate_custom()

    def _validate_custom(self):
        """Identity, then per element in order bijectivity and the measure (the
        first failing element is named), then a sampled associativity check."""
        G, rows, w = self.group, self._rows, self.space.weights
        n = self.space.size
        if not np.array_equal(rows[G.identity], np.arange(n)):
            raise ActionValidationError("identity does not act trivially")
        for chunk in row_chunks(np.arange(G.order), n):
            block = rows[chunk]
            in_range = (block.min(axis=1) >= 0) & (block.max(axis=1) < n)
            moved = np.take(w, block, mode="clip")     # a row out of range fails bijectivity
            moved -= w
            moves = np.abs(moved, out=moved).max(axis=1) > _WEIGHT_TOL
            block[~in_range] = 0            # so that its points stay in its own bins below
            # row i counts its points in bins i*n .. i*n + n - 1: bijective when none holds two
            block += np.arange(0, block.size, n)[:, None]
            counts = np.bincount(block.ravel(), minlength=block.size).reshape(block.shape)
            not_bijective = ~in_range | (counts.max(axis=1) > 1)
            bad = np.flatnonzero(not_bijective | moves)
            if len(bad):
                i = bad[0]
                if not_bijective[i]:
                    raise ActionValidationError("element %d does not act bijectively" % chunk[i])
                raise ActionValidationError("element %d does not preserve the measure" % chunk[i])
        rng = np.random.default_rng(0)
        m = min(G.order * G.order, 10_000)
        gs = rng.integers(0, G.order, m)
        hs = rng.integers(0, G.order, m)
        pts = rng.integers(0, self.space.size, m)
        lhs = rows[G.mul_pairs(gs, hs), pts]
        rhs = rows[gs, rows[hs, pts]]
        if np.any(lhs != rhs):
            raise ActionValidationError("action is not associative with the group law")

    def inv_rows(self, gs):
        """The rows x -> g^-1 . x for g in gs, in blocks that the next block may
        overwrite: the one place an action kind picks its rows.  Left reads the
        translates L at g^-1, right the right translates R at g, conjugation
        R[L] (g^-1 x g), and custom its stored rows at g^-1."""
        G, gs = self.group, np.asarray(gs)
        if self.kind == "left":
            return G.translates(G.inv[gs])
        if self.kind == "right":
            return G.translates(gs, right=True)
        if self.kind == "conjugation":
            return (compose_rows(L, R) for L, R in zip(G.translates(G.inv[gs]),
                                                       G.translates(gs, right=True)))
        return (self._rows[G.inv[chunk]] for chunk in row_chunks(gs, self.space.size))

    def inv_row(self, g):
        """x -> g^-1 . x, the row behind the Koopman operator."""
        return next(self.inv_rows([g]))[0]

    def act_row(self, g):
        """x -> g . x over all points of X.  Kept for perfbench's tracer, which
        wraps it by name; act and the tests read it."""
        return self.inv_row(self.group.inv[g])

    def act(self, g, x):
        return int(self.act_row(g)[x])

    def inv_rows_matrix(self):
        """Matrix M with M[g, x] = g^-1 . x, built on each call.  Refused for a
        built-in action of a group without a dense table, where M is |G| x |G|."""
        G = self.group
        if self._rows is None and G.table is None:
            raise ValueError("the %s action of %s (|G| = %d) has no row matrix: it needs a "
                             "dense table, and would take %d bytes"
                             % (self.kind, G.desc, G.order, 4 * G.order * G.order))
        return np.concatenate([b.astype(np.int32) for b in self.inv_rows(np.arange(G.order))])

    def orbit_of(self):
        """Orbit index per point of X (orbits of the full group action), cached.
        Left and right have one orbit: a read-only int64 zero broadcast to |X|.
        Conjugation returns conjugacy_classes(G).class_of itself, read-only."""
        if self._orbit_of is not None:
            return self._orbit_of
        n_x = self.space.size
        if self.kind in ("left", "right"):
            out = np.broadcast_to(np.int64(0), n_x)
        elif self.kind == "conjugation":
            out = conjugacy_classes(self.group).class_of
        else:       # x's orbit is column x of the rows: ids in order of least member
            out = np.unique(self._rows.min(axis=0), return_inverse=True)[1]
        self._orbit_of = out
        return out


def gather_blocks(blocks, *values):
    """For each index block, the tuple of values[k][block] (along axis 0), each
    gathered into one buffer per value array that the next block overwrites."""
    bufs = None
    for block in blocks:
        if bufs is None:
            bufs = [np.empty(block.shape + v.shape[1:], dtype=v.dtype) for v in values]
        # mode="clip": the default "raise" copies out first; indices are in range
        yield tuple(np.take(v, block, axis=0, out=buf[:len(block)], mode="clip")
                    for v, buf in zip(values, bufs))


def build_action(G, kind):
    """The left/right translation or conjugation action of G on itself."""
    if kind not in BUILT_IN:
        raise ValueError("built-in kinds are left, right, conjugation")
    return ActionTable(G, ProbabilitySpace.uniform(G.order), kind)


def cached_action(G, kind):
    """Per-group memo of the built-in actions: they share one uniform space."""
    cache = getattr(G, "_action_cache", None)
    if cache is None:
        cache = G._action_cache = {}
    if kind not in cache:
        shared = next(iter(cache.values()), None)
        if shared is None or kind not in BUILT_IN:
            cache[kind] = build_action(G, kind)     # raises on any other kind
        else:
            cache[kind] = ActionTable(G, shared.space, kind)
    return cache[kind]


def koopman_apply(a, g, f):
    """(g . f)(x) = f(g^-1 . x); unitary on L2(X, nu).  Only the tests and
    perfbench's tracer, which wraps it by name, call it."""
    if f.space.size != a.space.size:
        raise SpaceMismatchError("observable not on the action's space")
    return Observable(f.space, f.values[a.inv_row(g)])


def invariant_projection(a, f):
    """Group average of the Koopman translates (mean ergodic theorem).

    (1/|G|) sum_g f(g^-1 . x) collapses, exactly, to the unweighted mean
    of f over the orbit of x: every orbit point is hit |G|/|orbit| times.
    """
    means, orbit_of = orbit_means(a, f)
    return Observable(f.space, means[orbit_of])


def orbit_means(a, f):
    """(means, orbit_of): the mean of f over each orbit of the action and the
    orbit of each point, so that invariant_projection(a, f) is means[orbit_of].
    The triple recurrence reads the projection in tiles from these two."""
    if f.space.size != a.space.size:
        raise SpaceMismatchError("observable not on the action's space")
    orbit_of = a.orbit_of()
    n_orbits = int(orbit_of.max()) + 1
    sums = np.zeros(n_orbits, dtype=np.complex128)
    np.add.at(sums, orbit_of, f.values)
    counts = np.bincount(orbit_of, minlength=n_orbits)
    return sums / counts, orbit_of


def random_observable(space, seed):
    """Seed-deterministic random observable; values uniform on the unit disc."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, space.size))
    theta = rng.uniform(0.0, 2.0 * np.pi, space.size)
    return Observable(space, r * np.exp(1j * theta))
