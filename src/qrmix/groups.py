"""Finite groups as dense index structures with normalized counting measure.

Elements are indices 0..n-1.  Each backend has two multiplication kernels:
mul_pairs, the elementwise product of two index arrays, and row, the row
x -> g x (or x -> x g) over every element or over a column range; by default a
row is one mul_pairs, and permutations, SL(2,p) matrices and direct products
(an outer sum of their factors' rows) compute it faster.  A backend's inv(idx)
gives the inverses of the indices asked for alone.  Groups of order up to
DENSE_LIMIT carry a full int16 multiplication table, its rows composed from
the generators' rows.  GroupTable.mul_vec and vec_mul serve every shape: a row
is read from the table, else from backend.row; an index array goes through
mul_pairs.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 2_000_000
DENSE_LIMIT = 4096          # dense int16 table and every-g vdc integral up to this order
# values per block of every row stream (translates, inv_rows, gather_blocks,
# VectorFamily.rows): an exact pass holds two intp index rows and two complex
# gather buffers per block, 48 bytes a value, so 2^15 values (1.5 MiB) fit
# in a 2 MiB per-core L2 cache; the triple recurrence's column tiles keep
# their own width, COLUMN_TILE.  An SL(2,p) kernel row is filled ROW_BLOCK
# values at a time, through a ROW_BLOCK-long scratch
ROW_BLOCK = 1 << 15
COLUMN_TILE = 1 << 16       # columns per tile of the triple recurrence: fixes its summation order
_TRANSPOSE_TILE = 256       # table rows per tile of the kept transpose
EXACT_MAX_ORDER = 3000      # default largest order that mixing and recurrence average exactly
VDC_EXACT_MAX = 512         # largest order whose van der Corput Gram matrix is formed
SAMPLE_FLOOR = {"mixing": 30, "recurrence": 1, "vdc": 1}
SAMPLE_CEILING = 10**6      # sampled g (or (g, h) pairs) per check
CI_Z = 2.58                 # 99% normal confidence half-width of a sampled average
PASS_TOL = 1e-9

_INDEX_DTYPE = np.int64


class GroupConstructionError(ValueError):
    """Unsupported family, bad parameter, or order above the cap."""


def _is_prime(n):
    """Trial division: every n asked about is below 2^31 (4 ms at 2^31 - 1)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def into(out, row):
    """row, copied into out when out is given and is not row already."""
    if out is not None and row is not out:
        out[...] = row
    return row if out is None else out


def span(cols, n):
    """(start, stop) of the column range cols, a slice, of an n-long row."""
    return cols.indices(n)[:2]


def row_chunks(gs, width):
    """gs in consecutive slices of max(1, ROW_BLOCK // width) entries (the
    last may be shorter): the block length of every stream of rows of that
    width, so a block holds about ROW_BLOCK values."""
    B = max(1, ROW_BLOCK // width)
    return (gs[s:s + B] for s in range(0, len(gs), B))


def compose_rows(L, R):
    """The rows x -> R[i, L[i, x]] of two equal blocks of intp rows, as one flat
    take.  L is overwritten with the flat indices: read what it holds before."""
    L += np.arange(0, R.size, R.shape[1])[:, None]
    return R.take(L)


# ---------------------------------------------------------------------------
# backends


class _Backend:
    """Multiplication kernels on element indices.

    Subclasses set ``n`` and ``identity`` and implement mul_pairs and inv; a
    subclass with a faster row overrides row.
    """

    n = 0
    identity = 0

    def mul_pairs(self, is_, js):
        """is_ * js elementwise (equal-length arrays)."""
        raise NotImplementedError

    def row(self, g, right=False, out=None, cols=slice(None)):
        """The row x -> g x (x -> x g when right) over the column range cols
        (a slice, every element by default), into out when given: one
        mul_pairs over those elements."""
        xs = np.arange(*span(cols, self.n), dtype=_INDEX_DTYPE)
        gs = np.full(len(xs), g, dtype=_INDEX_DTYPE)
        return into(out, self.mul_pairs(xs, gs) if right else self.mul_pairs(gs, xs))

    def inv(self, idx):
        """The inverses of the 1-D index array idx."""
        raise NotImplementedError

    def generators(self):
        raise NotImplementedError

    def label(self, i):
        raise NotImplementedError

    def dense_table(self):
        """The int16 table whose row g is row(g), composed from the
        generators' rows: the row of h s is row h taken at s's row, since
        (h s) x = h (s x).  Rows are filled level by level out from the
        identity, one take per generator per level; the kernel runs only at
        the generators."""
        n, e = self.n, self.identity
        table = np.empty((n, n), dtype=np.int16)
        table[e] = np.arange(n)
        reached = np.zeros(n, dtype=bool)
        reached[e] = True
        gens = [(s, self.row(s)) for s in self.generators()]
        frontier = np.array([e])
        while len(frontier):
            next_level = []
            for s, row in gens:
                hs = table[frontier, s]          # h s, read from the rows of h
                new = ~reached[hs]
                hs, hs_from = hs[new], frontier[new]
                reached[hs] = True
                table[hs] = table[hs_from].take(row, axis=1)
                next_level.append(hs)
            frontier = np.concatenate([frontier[:0], *next_level])
        if not reached.all():
            raise GroupConstructionError("the generators reach %d of the %d elements"
                                         % (np.count_nonzero(reached), n))
        return table


class _Cyclic(_Backend):
    def __init__(self, n):
        self.n = n
        self.identity = 0

    def mul_pairs(self, is_, js):
        return (np.asarray(is_, dtype=_INDEX_DTYPE) + np.asarray(js)) % self.n

    def inv(self, idx):
        return -np.asarray(idx, dtype=_INDEX_DTYPE) % self.n

    def generators(self):
        return [1] if self.n > 1 else []

    def label(self, i):
        return str(i)


class _Dihedral(_Backend):
    """Order 2n; index a*n + k encodes s^a r^k with r s = s r^-1."""

    def __init__(self, n):
        self.rot = n
        self.n = 2 * n
        self.identity = 0

    def _split(self, idx):
        return np.divmod(np.asarray(idx, dtype=_INDEX_DTYPE), self.rot)

    def _join(self, a, k):
        return a * self.rot + k

    def mul_pairs(self, is_, js):
        a, k = self._split(is_)
        b, m = self._split(js)
        sign = 1 - 2 * b
        return self._join((a + b) % 2, (m + k * sign) % self.rot)

    def inv(self, idx):
        a, k = self._split(idx)
        # (s^a r^k)^-1 = r^-k for a=0, itself for a=1
        return self._join(a, np.where(a == 0, (-k) % self.rot, k))

    def generators(self):
        gens = []
        if self.rot > 1:
            gens.append(1)
        gens.append(self.rot)  # s
        return gens

    def label(self, i):
        a, k = int(i) // self.rot, int(i) % self.rot
        return ("s" if a else "") + "r%d" % k


class _Perm(_Backend):
    """Symmetric group on deg points, elements in lexicographic one-line order."""

    def __init__(self, deg):
        self.deg = deg
        self.perms = np.array(
            list(itertools.permutations(range(deg))), dtype=_INDEX_DTYPE
        )
        self.n = len(self.perms)
        self.codes = self._code(self.perms)
        # itertools emits lexicographic order, which the base-deg code preserves
        assert np.all(np.diff(self.codes) > 0)
        self.identity = int(self._index_of(np.arange(deg)[None, :])[0])

    def _code(self, perms):
        code = np.zeros(perms.shape[0], dtype=_INDEX_DTYPE)
        for col in range(self.deg):
            code = code * self.deg + perms[:, col]
        return code

    def _index_of(self, perms):
        return np.searchsorted(self.codes, self._code(perms))

    def row(self, g, right=False, out=None, cols=slice(None)):
        # (p_g o p_x)(y) = p_g[p_x[y]], (p_x o p_g)(y) = p_x[p_g[y]]
        pg, px = self.perms[g], self.perms[cols]
        return into(out, self._index_of(px[:, pg] if right else pg[px]))

    def mul_pairs(self, is_, js):
        pi, pj = self.perms[np.asarray(is_)], self.perms[np.asarray(js)]
        return self._index_of(compose_rows(pj, pi))     # (p_i o p_j)(x) = p_i[p_j[x]]

    def inv(self, idx):
        return self._index_of(np.argsort(self.perms[idx], axis=1))

    def generators(self):
        if self.deg < 2:
            return []
        swap = np.arange(self.deg)
        swap[0], swap[1] = 1, 0
        cyc = np.roll(np.arange(self.deg), -1)
        gens = {int(self._index_of(swap[None, :])[0]), int(self._index_of(cyc[None, :])[0])}
        return sorted(gens)

    def label(self, i):
        return "".join(str(v + 1) for v in self.perms[i])


class _Mat2(_Backend):
    """SL(2,p), or PSL(2,p) as +/- orbits labeled by the lex-smaller matrix.

    Elements are in lexicographic order of (a, b, c, d), and a label's first
    nonzero entry is at most h (p - 1 in SL, (p - 1) / 2 in PSL).  So a matrix,
    negated if that entry exceeds h, has index p * rank(a, b) + (c if a else d),
    two lookups in p^2-entry tables on the pair codes of its rows or columns.

    The pair codes of every element are written block by block in index
    order, from aranges and one p^2 table: a = 0 in (b, d) order, where
    c = -1/b, then a != 0 in (a, b, c) order, where d = (1 + bc)/a is the
    table (1 + bc) mod p times 1/a.  inv reads the inverses' row codes off
    the column codes of the indices asked for through two more p^2 tables,
    with no arithmetic on the entries.  Beside those four |G|-long code
    arrays the backend keeps only p^2-entry tables and a ROW_BLOCK-long
    scratch of row.
    """

    def __init__(self, p, projective):
        self.p = p
        self.projective = projective
        h = (p - 1) // 2 if projective else p - 1
        inv_t = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=_INDEX_DTYPE)
        ar, lead = np.arange(p, dtype=_INDEX_DTYPE), np.arange(1, h + 1, dtype=_INDEX_DTYPE)
        n0 = h * p
        self.n = n0 + h * p * p
        ab, cd, ac, bd = np.empty((4, self.n), dtype=_INDEX_DTYPE)
        self._rows, self._cols = (ab, cd), (ac, bd)
        # a == 0, in (b, d) order: bc = -1 fixes c = -1/b
        c0 = -inv_t[lead] % p
        ab[:n0] = np.repeat(lead, p)
        ac[:n0] = np.repeat(c0, p)
        np.add((c0 * p)[:, None], ar, out=cd[:n0].reshape(h, p))
        np.add((lead * p)[:, None], ar, out=bd[:n0].reshape(h, p))
        # a != 0, in (a, b, c) order: det = 1 fixes d = (1 + bc) / a.  d goes
        # into bd first; cd is d + c p, and then b p is added to bd
        ab[n0:].reshape(h, p, p)[...] = ((lead * p)[:, None] + ar)[:, :, None]
        np.add((lead * p)[:, None, None], ar, out=ac[n0:].reshape(h, p, p))
        d = bd[n0:].reshape(h, p, p)
        np.multiply((1 + ar[:, None] * ar) % p, inv_t[lead, None, None], out=d)
        d %= p
        np.add(d, ar * p, out=cd[n0:].reshape(h, p, p))
        d += (ar * p)[:, None]
        # tables over the pair codes u * p + v; neg: the pair as a first row
        # needs the matrix negated; _Z picks the second pair's table section
        u, v = self._uv = np.divmod(np.arange(p * p, dtype=_INDEX_DTYPE), p)
        self._ar, self._mod = ar, np.arange(2 * p - 1, dtype=_INDEX_DTYPE) % p
        neg = (u > h) | (u == 0) & (v > h)
        su, sv = np.where(neg, -u % p, u), np.where(neg, -v % p, v)
        rank = su * p + sv - 1 + (h + 1 - p) * (u != 0)
        self._Z = p * p * (2 * (u == 0) + neg)
        self._RA = p * rank                                   # rows (a, b), (c, d)
        self._RB = np.stack([u, -u % p, v, -v % p])
        self._CA = np.where(u == 0, 0, p * (rank - sv) + sv)   # columns (a, c), (b, d)
        self._CB = np.stack([p * u, p * (-u % p), p * (su - 1) + sv, p * (su - 1) + sv])
        self.identity = int(self._index(1, 0, 0, 1))
        self._work = np.empty(min(self.n, ROW_BLOCK), dtype=_INDEX_DTYPE)   # scratch of row

    def _index(self, a, b, c, d):
        """Indices of the matrices [[a, b], [c, d]], entries reduced mod p."""
        first = a * self.p + b
        return self._RA[first] + self._RB.ravel()[self._Z[first] + c * self.p + d]

    def _entries(self, idx):
        return divmod(self._rows[0][idx], self.p) + divmod(self._rows[1][idx], self.p)

    def row(self, g, right=False, out=None, cols=slice(None)):
        """Every element of the column range cols with both its pairs mapped
        by g (or g^T): the pair tables composed with that map, then three
        gathers per element, ROW_BLOCK elements at a time through the
        scratch.  With out given nothing is allocated but a few p^2-entry
        tables."""
        p = self.p
        a, b, c, d = (int(t) for t in self._entries(g))
        if right:       # x g: the rows of x mapped by g^T
            x, y, z, w, (P, Q), A, B = a, c, b, d, self._rows, self._RA, self._RB
        else:           # g x: the columns of x mapped by g
            x, y, z, w, (P, Q), A, B = a, b, c, d, self._cols, self._CA, self._CB
        # M[u p + v] = (x u + y v mod p) p + (z u + w v mod p), as outer sums
        # of residues reduced through _mod: a p^2 division costs more than a row chunk
        ar, mod = self._ar, self._mod
        M = mod.take((x * ar % p)[:, None] + y * ar % p).ravel() * p
        M += mod.take((z * ar % p)[:, None] + w * ar % p).ravel()
        A, B, Z = A[M], B.take(M, axis=1).ravel(), self._Z[M]
        start, stop = span(cols, self.n)
        out = np.empty(stop - start, dtype=_INDEX_DTYPE) if out is None else out
        for s in range(start, stop, ROW_BLOCK):
            t = min(s + ROW_BLOCK, stop)
            o, work = out[s - start:t - start], self._work[:t - s]
            # mode="clip": the default "raise" copies out first; indices are in range
            np.add(Z.take(P[s:t], out=work, mode="clip"), Q[s:t], out=work)
            B.take(work, out=o, mode="clip")
            np.add(o, A.take(P[s:t], out=work, mode="clip"), out=o)
        return out

    def mul_pairs(self, is_, js):
        (a, b, c, d), (x, y, z, w), p = self._entries(is_), self._entries(js), self.p
        return self._index((a * x + b * z) % p, (a * y + b * w) % p,
                           (c * x + d * z) % p, (c * y + d * w) % p)

    def inv(self, idx):
        """[[a, b], [c, d]]^-1 = [[d, -b], [-c, a]]: its row codes are tables
        of the column codes b p + d and a p + c, read into _index's tables."""
        p, (u, v) = self.p, self._uv
        first = (v * p + -u % p).take(self._cols[1][idx])
        second = ((-v % p) * p + u).take(self._cols[0][idx])
        second += self._Z.take(first)
        out = self._RB.ravel().take(second)
        out += self._RA.take(first)
        return out

    def generators(self):
        return sorted({int(self._index(1, 1, 0, 1)), int(self._index(1, 0, 1, 1))})

    def label(self, i):
        a, b, c, d = (int(t) for t in self._entries(i))
        body = "[[%d,%d],[%d,%d]]" % (a, b, c, d)
        return ("±" + body) if self.projective else body


class _Product(_Backend):
    """A x B; index a*|B| + b encodes (a, b).  A full row is an outer sum of
    the factors' full rows, (a, b)(x, y) = (a x) * |B| + b y over every (x, y),
    one broadcast add after one row per factor (recursively for nested
    products); mul_pairs splits its index arrays into their factors' indices."""

    def __init__(self, A, B):
        self.A, self.B = A, B
        self.n = A.n * B.n
        self.identity = A.identity * B.n + B.identity

    def _split(self, idx):
        return np.divmod(np.asarray(idx, dtype=_INDEX_DTYPE), self.B.n)

    def mul_pairs(self, is_, js):
        ia, ib = self._split(is_)
        ja, jb = self._split(js)
        return self.A.mul_pairs(ia, ja) * self.B.n + self.B.mul_pairs(ib, jb)

    def row(self, g, right=False, out=None, cols=slice(None)):
        """A.row(ga)[:, None] * |B| + B.row(gb)[None, :] for g = (ga, gb),
        flattened, over the column range cols, written into out when given (a
        1-D array reshapes as a view).  A range of whole rows of that outer
        sum is written in place, from the factors' rows alone; any other is
        cut from the outer sum over the A-rows it meets."""
        nb = self.B.n
        ga, gb = divmod(int(g), nb)
        start, stop = span(cols, self.n)
        a0, a1 = start // nb, -(-stop // nb)
        out = np.empty(stop - start, dtype=_INDEX_DTYPE) if out is None else out
        rows = (self.A.row(ga, right, cols=slice(a0, a1)) * nb)[:, None], self.B.row(gb, right)
        if start % nb == 0 and stop % nb == 0:
            np.add(*rows, out=out.reshape(a1 - a0, nb))
        else:
            out[...] = np.add(*rows).ravel()[start - a0 * nb:stop - a0 * nb]
        return out

    def inv(self, idx):
        ia, ib = self._split(idx)
        return self.A.inv(ia) * self.B.n + self.B.inv(ib)

    def generators(self):
        gens = [g * self.B.n + self.B.identity for g in self.A.generators()]
        gens += [self.A.identity * self.B.n + g for g in self.B.generators()]
        return gens

    def label(self, i):
        return "(%s,%s)" % (self.A.label(i // self.B.n), self.B.label(i % self.B.n))


class _Explicit(_Backend):
    """Backend over a raw multiplication table; used for injected-fault tests."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=_INDEX_DTYPE)
        self.n = len(self.table)
        self.identity = self._find_identity()

    def _find_identity(self):
        idx = np.arange(self.n)
        for e in range(self.n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        return 0

    def mul_pairs(self, is_, js):
        return self.table[np.asarray(is_), np.asarray(js)]

    def inv(self, idx):
        """The last column j of row i holding the identity, for i in idx; -1
        where row i holds none (a planted table need not be a group)."""
        hit = self.table[np.asarray(idx)] == self.identity
        last = self.n - 1 - np.argmax(hit[:, ::-1], axis=1)
        return np.where(hit.any(axis=1), last, -1)

    def dense_table(self):
        """The raw table as planted, narrowed to int16: composing rows would
        assume the associativity a planted fault may break."""
        return self.table.astype(np.int16)

    def generators(self):
        """The smallest element outside the subgroup generated so far, until
        that subgroup is the whole group."""
        gens, inside = [], np.arange(self.n) == self.identity
        while not inside.all():
            gens.append(int(np.argmin(inside)))
            new = np.nonzero(inside)[0]
            while len(new):        # close under right multiplication by gens
                new = np.unique(self.table[new[:, None], gens])
                new = new[~inside[new]]
                inside[new] = True
        return gens

    def label(self, i):
        return str(i)


# ---------------------------------------------------------------------------
# group table


def _tiled_transpose(table):
    """table.T as a read-only C-ordered array, copied _TRANSPOSE_TILE rows
    at a time, so that each tile's reads and writes stay in cache."""
    t = np.empty(table.shape[::-1], dtype=table.dtype)
    for s in range(0, table.shape[0], _TRANSPOSE_TILE):
        t[:, s:s + _TRANSPOSE_TILE] = table[s:s + _TRANSPOSE_TILE].T
    t.flags.writeable = False
    return t


class GroupTable:
    """A finite group with uniform probability weight 1/|G| per element.

    It keeps no |G|-long array that no check reads: above DENSE_LIMIT
    inverses(idx) asks the backend for the inverses of idx alone, and the
    whole inverse, inv, is built on first read (there by tests and
    perfbench's oracles only) and then kept.
    """

    def __init__(self, backend, desc):
        if backend.n > MAX_ORDER:
            raise GroupConstructionError(
                "order %d of %r exceeds cap %d" % (backend.n, desc, MAX_ORDER)
            )
        self.backend = backend
        self.desc = desc
        self.order = backend.n
        self.identity = backend.identity
        self._inv = None         # the whole inverse, built on first read of inv
        self.table = None
        if self.order <= DENSE_LIMIT:
            self.table = backend.dense_table()
            self.table.flags.writeable = False
        self._table_t = None     # the table's transpose, built on first use
        # downstream caches (conjugacy data, degrees) live on the instance
        self._conjugacy = None
        self._degrees = None

    @classmethod
    def from_table(cls, table, desc="explicit"):
        """Wrap a raw table without validation, to plant faults: only tests and
        perfbench's selftest (a corrupted table) build one.  Up to DENSE_LIMIT
        G.table is the raw table entry for entry (as int16), never recomposed
        from generators, so a planted fault reaches the checks as planted."""
        return cls(_Explicit(table), desc)

    def __repr__(self):
        return "GroupTable(%s, order=%d)" % (self.desc, self.order)

    @property
    def inv(self):
        """The inverse of every element, read-only, built on first read."""
        if self._inv is None:
            self._inv = self.backend.inv(np.arange(self.order, dtype=_INDEX_DTYPE))
            self._inv.flags.writeable = False
        return self._inv

    def inverses(self, idx):
        """The inverses of the indices idx (an int or an array, of any shape).
        A group with a dense table reads them from inv, at most DENSE_LIMIT
        entries beside its |G|^2 table, since a per-g caller (the Gram check,
        act_row) would pay the backend's fixed cost on every call; a larger
        group asks the backend for idx alone."""
        if self.table is not None:
            return self.inv[idx]
        idx = np.asarray(idx, dtype=_INDEX_DTYPE)
        return self.backend.inv(idx.ravel()).reshape(idx.shape)

    def mul(self, i, j):
        if self.table is not None:
            return int(self.table[i, j])
        return int(self.backend.mul_pairs(np.array([i]), np.array([j]))[0])

    def mul_vec(self, i, js=None, out=None, cols=slice(None)):
        """i * js elementwise, js None meaning every element of the column
        range cols (a slice, all by default); into out when given."""
        if js is not None:
            return into(out, self.mul_pairs(np.full(np.shape(js), i, dtype=_INDEX_DTYPE), js))
        if self.table is None:
            return self.backend.row(i, False, out, cols)
        return into(out, self.table[i, cols])

    def vec_mul(self, is_, j, out=None, cols=slice(None)):
        """is_ * j elementwise, is_ None meaning every element of the column
        range cols (a slice, all by default); into out when given."""
        if is_ is not None:
            return into(out, self.mul_pairs(is_, np.full(np.shape(is_), j, dtype=_INDEX_DTYPE)))
        if self.table is None:
            return self.backend.row(j, True, out, cols)
        return into(out, self.table[cols, j])

    def mul_pairs(self, is_, js):
        if self.table is not None:
            return self.table[np.asarray(is_), np.asarray(js)]
        return self.backend.mul_pairs(is_, js)

    def translates(self, gs, right=False, cols=slice(None)):
        """The rows y -> g y (y -> y g when right) for g in gs, over the column
        range cols (a slice, every y by default), in the blocks of
        row_chunks(gs, width of cols), each a view of one intp buffer that the
        next block overwrites.  A block is one gather from the table, or from
        its transpose when right, else one kernel call per row (on a product,
        an outer sum of its factors' rows, written into the block in place)."""
        if right and self.table is not None and self._table_t is None:
            self._table_t = _tiled_transpose(self.table)   # row g: y -> y g
        table = self._table_t if right else self.table
        start, stop = span(cols, self.order)
        buf = None
        for block_gs in row_chunks(np.asarray(gs), stop - start):
            if buf is None:
                buf = np.empty((len(block_gs), stop - start), dtype=np.intp)
            block = buf[:len(block_gs)]
            if table is not None:
                block[...] = table[block_gs, cols]
            elif right:
                for row, g in zip(block, block_gs):
                    self.vec_mul(None, int(g), out=row, cols=cols)
            else:
                for row, g in zip(block, block_gs):
                    self.mul_vec(int(g), out=row, cols=cols)
            yield block

    def generators(self):
        return self.backend.generators()

    def label(self, i):
        return self.backend.label(i)

    @property
    def labels(self):
        return [self.backend.label(i) for i in range(self.order)]


# ---------------------------------------------------------------------------
# descriptor grammar: cyclic:<n>, dihedral:<n>, symmetric:<n>, sl2:<p>,
# psl2:<p>, product:<desc>,<desc>

_ATOM_RE = re.compile(r"^(cyclic|dihedral|symmetric|sl2|psl2):(\d+)")


def _parse(s):
    if s.startswith("product:"):
        left, rest = _parse(s[len("product:"):])
        if not rest.startswith(","):
            raise GroupConstructionError("product descriptor needs two comma-separated parts")
        right, rest = _parse(rest[1:])
        return ("product", left, right), rest
    m = _ATOM_RE.match(s)
    if not m:
        raise GroupConstructionError("cannot parse descriptor %r" % s)
    return (m.group(1), int(m.group(2))), s[m.end():]


def parse_descriptor(desc):
    tree, rest = _parse(desc)
    if rest:
        raise GroupConstructionError("trailing junk %r in descriptor %r" % (rest, desc))
    return tree


def _canonical(tree):
    if tree[0] == "product":
        return "product:%s,%s" % (_canonical(tree[1]), _canonical(tree[2]))
    return "%s:%d" % tree


def _check_atom(kind, n):
    """GroupConstructionError unless kind:n names a group that can be built."""
    if kind not in ("cyclic", "dihedral", "symmetric", "sl2", "psl2"):
        raise GroupConstructionError("unsupported family %r" % kind)
    if kind == "cyclic" and n < 1:
        raise GroupConstructionError("cyclic order must be >= 1")
    if kind == "dihedral" and n < 1:
        raise GroupConstructionError("dihedral parameter must be >= 1")
    if kind == "symmetric" and not 1 <= n <= 8:
        raise GroupConstructionError("symmetric degree must be in 1..8")
    if kind in ("sl2", "psl2") and (n == 2 or n > 101 or not _is_prime(n)):
        raise GroupConstructionError("%s parameter must be an odd prime <= 101" % kind)


def _build_backend(tree):
    kind = tree[0]
    if kind == "product":
        return _Product(_build_backend(tree[1]), _build_backend(tree[2]))
    n = tree[1]
    _check_atom(kind, n)
    if kind == "cyclic":
        return _Cyclic(n)
    if kind == "dihedral":
        return _Dihedral(n)
    if kind == "symmetric":
        return _Perm(n)
    return _Mat2(n, projective=(kind == "psl2"))


_PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15, 22)   # p(n), n = 0..8


def class_count(desc):
    """Number of conjugacy classes of the group desc names, from closed forms
    alone (no table, no classes): n for cyclic:n; (n + 3)/2 or (n + 6)/2 for
    dihedral:n, n odd or even; the partition number p(n) for symmetric:n;
    p + 4 for sl2:p; (p + 5)/2 for psl2:p.  A product multiplies its parts'."""
    tree = parse_descriptor(desc) if isinstance(desc, str) else desc
    kind = tree[0]
    if kind == "product":
        return class_count(tree[1]) * class_count(tree[2])
    n = tree[1]
    _check_atom(kind, n)
    if kind == "cyclic":
        return n
    if kind == "dihedral":
        return (n + 3) // 2 if n % 2 else (n + 6) // 2
    if kind == "symmetric":
        return _PARTITIONS[n]
    return n + 4 if kind == "sl2" else (n + 5) // 2


def canonical_descriptor(desc):
    """The one spelling of a descriptor that build_group gives as desc."""
    return _canonical(parse_descriptor(desc))


def group_order(desc):
    """|G| of a descriptor, from its backend alone (no table)."""
    return _build_backend(parse_descriptor(desc)).n


def build_group(desc):
    """Construct a group from a family descriptor string (or parsed tree)."""
    tree = parse_descriptor(desc) if isinstance(desc, str) else desc
    return GroupTable(_build_backend(tree), _canonical(tree))


def product_factors(G):
    """G's factors A, B if G = A x B, else None: new GroupTables on its backend's
    own A and B, named by their canonical descriptors; nothing is cached on G."""
    if not isinstance(G.backend, _Product):
        return None
    _, a, b = parse_descriptor(G.desc)
    return GroupTable(G.backend.A, _canonical(a)), GroupTable(G.backend.B, _canonical(b))


# ---------------------------------------------------------------------------
# sampling plan


def check_samples(experiment, samples, name="samples"):
    """samples, if experiment can average over that many sampled g."""
    if not SAMPLE_FLOOR[experiment] <= samples <= SAMPLE_CEILING:
        raise ValueError("%s must be >= %d and <= %d"
                         % (name, SAMPLE_FLOOR[experiment], SAMPLE_CEILING))
    return samples


def plan(experiment, desc, order, samples=None, seed=0, exact_max_order=EXACT_MAX_ORDER):
    """None if experiment ("mixing", "recurrence" or "vdc") averages over
    every g of the group desc of order |G|, else the number of seeded g it
    samples; a ValueError naming the input at fault if it cannot run.
    Mixing and recurrence average every g up to exact_max_order on any group,
    with or without a dense table; vdc up to VDC_EXACT_MAX (its Gram matrix)."""
    if order <= (VDC_EXACT_MAX if experiment == "vdc" else exact_max_order):
        return None
    if samples is None or seed is None:
        raise ValueError("%s on %s (|G| = %d) samples g, and needs samples and a seed"
                         % (experiment, desc, order))
    return check_samples(experiment, samples)


def draw(experiment, desc, order, samples=None, seed=0, exact_max_order=EXACT_MAX_ORDER):
    """None where plan averages every g, else its seeded sample from one
    default_rng(seed): the m indices g, and for vdc the pair (g, h), h
    drawn after g."""
    m = plan(experiment, desc, order, samples, seed, exact_max_order)
    if m is None:
        return None
    rng = np.random.default_rng(seed)
    gs = rng.integers(0, order, m)
    return (gs, rng.integers(0, order, m)) if experiment == "vdc" else gs


def average(terms):
    """(mean, half-width) of per-g terms: their fsum mean, and CI_Z standard
    errors of it, None for fewer than two terms."""
    m = len(terms)
    half = CI_Z * float(np.std(terms, ddof=1)) / math.sqrt(m) if m > 1 else None
    return math.fsum(terms) / m, half


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass
class ConjugacyData:
    class_of: np.ndarray        # element index -> class index
    class_sizes: list
    representatives: list       # smallest member of each class

    @property
    def k(self):
        return len(self.class_sizes)


def conjugacy_classes(G):
    """Partition into conjugation orbits, ordered by (size, smallest member)."""
    if G._conjugacy is not None:
        return G._conjugacy
    # conjugation by each generator, as a permutation of the elements
    conj = [G.vec_mul(None, int(G.inverses(g))).take(G.mul_vec(g)) for g in G.generators()]
    # low[x]: a member of x's class, <= x.  int32 (|G| <= MAX_ORDER < 2^31)
    # halves the traffic of the gathers; class_of below is int64 again.  Each
    # round gathers into spare, and the pointer jump low[low] swaps the two
    low = np.arange(G.order, dtype=np.int32)
    spare, last = np.empty_like(low), np.empty_like(low)
    while True:
        np.copyto(last, low)
        for perm in conj:
            np.minimum(low, low.take(perm, out=spare, mode="clip"), out=low)
        low, spare = low.take(low, out=spare, mode="clip"), low
        if np.array_equal(low, last):   # a fixed point: low[x] is the least of x's class
            break
    reps = np.flatnonzero(low == np.arange(G.order))  # each class's least member, ascending
    sizes = np.bincount(low)[reps]
    order = np.lexsort((reps, sizes))               # by (size, least member)
    label = np.empty(G.order, dtype=_INDEX_DTYPE)   # class id, read at the least members
    label[reps[order]] = np.arange(len(order))
    class_of = label[low]
    class_of.flags.writeable = False                # the conjugation action shares it
    data = ConjugacyData(
        class_of=class_of,
        class_sizes=sizes[order].tolist(),
        representatives=reps[order].tolist(),
    )
    G._conjugacy = data
    return data
