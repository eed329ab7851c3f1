"""Finite groups as dense index structures with normalized counting measure.

Elements are indices 0..n-1.  Small groups carry a full multiplication
table; large groups (matrix / permutation families) multiply through their
canonical forms with vectorized numpy kernels and a memoized inverse table.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 2_000_000
DENSE_LIMIT = 4096          # dense table and every-g vdc integral up to this order
ROW_BLOCK = 1 << 16         # elements per block of translates and gather_blocks
EXACT_MAX_ORDER = 3000      # default largest order that mixing and recurrence average exactly
VDC_EXACT_MAX = 512         # largest order whose van der Corput Gram matrix is formed
SAMPLE_FLOOR = {"mixing": 30, "recurrence": 1, "vdc": 1}
SAMPLE_CEILING = 10**6      # sampled g (or (g, h) pairs) per check
PASS_TOL = 1e-9

_INDEX_DTYPE = np.int64


class GroupConstructionError(ValueError):
    """Unsupported family, bad parameter, or order above the cap."""


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _lookup(sorted_codes, queries):
    """Map canonical-form codes to element indices (codes must all be present)."""
    return np.searchsorted(sorted_codes, queries)


def into(out, row):
    """row, copied into out when out is given and is not row already."""
    if out is not None and row is not out:
        out[...] = row
    return row if out is None else out


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
    """Multiplication kernel on element indices.

    Subclasses set ``n`` and ``identity`` and implement the vectorized maps.
    An index array None means every element; a backend may write into out.
    """

    n = 0
    identity = 0

    def _all(self, idx):
        return np.arange(self.n, dtype=_INDEX_DTYPE) if idx is None else np.asarray(idx)

    def mul_vec(self, i, js, out=None):
        """i * js, elementwise over the array js."""
        js = self._all(js)
        return self.mul_pairs(np.full(js.shape, i, dtype=_INDEX_DTYPE), js)

    def vec_mul(self, is_, j, out=None):
        """is_ * j, elementwise over the array is_."""
        is_ = self._all(is_)
        return self.mul_pairs(is_, np.full(is_.shape, j, dtype=_INDEX_DTYPE))

    def mul_pairs(self, is_, js):
        """is_ * js elementwise (equal-length arrays)."""
        raise NotImplementedError

    def inv_all(self):
        raise NotImplementedError

    def generators(self):
        raise NotImplementedError

    def label(self, i):
        raise NotImplementedError


class _Cyclic(_Backend):
    def __init__(self, n):
        self.n = n
        self.identity = 0

    def mul_pairs(self, is_, js):
        return (np.asarray(is_, dtype=_INDEX_DTYPE) + np.asarray(js)) % self.n

    def inv_all(self):
        return (-np.arange(self.n, dtype=_INDEX_DTYPE)) % self.n

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
        idx = np.asarray(idx, dtype=_INDEX_DTYPE)
        return idx // self.rot, idx % self.rot

    def _join(self, a, k):
        return a * self.rot + k

    def mul_pairs(self, is_, js):
        a, k = self._split(is_)
        b, m = self._split(js)
        sign = 1 - 2 * b
        return self._join((a + b) % 2, (m + k * sign) % self.rot)

    def inv_all(self):
        idx = np.arange(self.n, dtype=_INDEX_DTYPE)
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
        self.identity = int(_lookup(self.codes, self._code(np.arange(deg)[None, :]))[0])

    def _code(self, perms):
        code = np.zeros(perms.shape[0], dtype=_INDEX_DTYPE)
        for col in range(self.deg):
            code = code * self.deg + perms[:, col]
        return code

    def _index_of(self, perms):
        return _lookup(self.codes, self._code(perms))

    def mul_vec(self, i, js, out=None):
        # (p_i o p_j)(x) = p_i[p_j[x]]
        return self._index_of(self.perms[i][self.perms[self._all(js)]])

    def vec_mul(self, is_, j, out=None):
        return self._index_of(self.perms[self._all(is_)][:, self.perms[j]])

    def mul_pairs(self, is_, js):
        pi, pj = self.perms[np.asarray(is_)], self.perms[np.asarray(js)]
        return self._index_of(compose_rows(pj, pi))     # (p_i o p_j)(x) = p_i[p_j[x]]

    def inv_all(self):
        return self._index_of(np.argsort(self.perms, axis=1))

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
    """

    def __init__(self, p, projective):
        self.p = p
        self.projective = projective
        h = (p - 1) // 2 if projective else p - 1
        inv_t = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=_INDEX_DTYPE)
        ar = np.arange(p, dtype=_INDEX_DTYPE)
        # in index order: a == 0 (bc = -1, d free), then a != 0 (det = 1 fixes d)
        b0, d0 = (x.ravel() for x in np.meshgrid(ar[1:h + 1], ar, indexing="ij"))
        a1, b1, c1 = (x.ravel() for x in np.meshgrid(ar[1:h + 1], ar, ar, indexing="ij"))
        a, b = np.concatenate([0 * b0, a1]), np.concatenate([b0, b1])
        c = np.concatenate([-inv_t[b0] % p, c1])
        d = np.concatenate([d0, (1 + b1 * c1) % p * inv_t[a1] % p])
        self.n = len(a)
        self._rows = (a * p + b, c * p + d)
        self._cols = (a * p + c, b * p + d)
        # tables over the pair codes u * p + v; neg: the pair as a first row
        # needs the matrix negated; _Z picks the second pair's table section
        u, v = self._uv = np.divmod(np.arange(p * p, dtype=_INDEX_DTYPE), p)
        neg = (u > h) | (u == 0) & (v > h)
        su, sv = np.where(neg, -u % p, u), np.where(neg, -v % p, v)
        rank = su * p + sv - 1 + (h + 1 - p) * (u != 0)
        self._Z = p * p * (2 * (u == 0) + neg)
        self._RA = p * rank                                   # rows (a, b), (c, d)
        self._RB = np.stack([u, -u % p, v, -v % p])
        self._CA = np.where(u == 0, 0, p * (rank - sv) + sv)   # columns (a, c), (b, d)
        self._CB = np.stack([p * u, p * (-u % p), p * (su - 1) + sv, p * (su - 1) + sv])
        self.identity = int(self._index(1, 0, 0, 1))
        self._work = np.empty(self.n, dtype=_INDEX_DTYPE)     # full-row scratch of _pair_mul

    def _index(self, a, b, c, d):
        """Indices of the matrices [[a, b], [c, d]], entries reduced mod p."""
        first = a * self.p + b
        return self._RA[first] + self._RB.ravel()[self._Z[first] + c * self.p + d]

    def _entries(self, idx):
        return divmod(self._rows[0][idx], self.p) + divmod(self._rows[1][idx], self.p)

    def _pair_mul(self, x, y, z, w, pairs, A, B, idx, out):
        """Indices of the elements idx with both pairs mapped by [[x, y], [z, w]]:
        tables A, B composed with the map, then three gathers per element.
        For every element (idx None) the pair tables are read as they are, and
        with out given nothing is allocated but a few p^2-entry tables."""
        p = self.p
        u, v = self._uv
        M = (x * u + y * v) % p * p + (z * u + w * v) % p
        A, B, Z = A[M], B.take(M, axis=1).ravel(), self._Z[M]
        P, Q = pairs if idx is None else (t[np.asarray(idx)] for t in pairs)
        work = self._work if idx is None else np.empty(P.shape, dtype=_INDEX_DTYPE)
        out = np.empty(P.shape, dtype=_INDEX_DTYPE) if out is None else out
        # mode="clip": the default "raise" copies out first; indices are in range
        np.add(Z.take(P, out=work, mode="clip"), Q, out=work)
        B.take(work, out=out, mode="clip")
        return np.add(out, A.take(P, out=work, mode="clip"), out=out)

    def mul_vec(self, i, js, out=None):
        a, b, c, d = (int(t) for t in self._entries(i))
        return self._pair_mul(a, b, c, d, self._cols, self._CA, self._CB, js, out)  # g x: columns by g

    def vec_mul(self, is_, j, out=None):
        a, b, c, d = (int(t) for t in self._entries(j))
        return self._pair_mul(a, c, b, d, self._rows, self._RA, self._RB, is_, out)  # x g: rows by g^T

    def mul_pairs(self, is_, js):
        (a, b, c, d), (x, y, z, w), p = self._entries(is_), self._entries(js), self.p
        return self._index((a * x + b * z) % p, (a * y + b * w) % p,
                           (c * x + d * z) % p, (c * y + d * w) % p)

    def inv_all(self):
        a, b, c, d = self._entries(np.arange(self.n))
        return self._index(d, -b % self.p, -c % self.p, a)

    def generators(self):
        return sorted({int(self._index(1, 1, 0, 1)), int(self._index(1, 0, 1, 1))})

    def label(self, i):
        a, b, c, d = (int(t) for t in self._entries(i))
        body = "[[%d,%d],[%d,%d]]" % (a, b, c, d)
        return ("±" + body) if self.projective else body


class _Product(_Backend):
    def __init__(self, A, B):
        self.A, self.B = A, B
        self.n = A.n * B.n
        self.identity = A.identity * B.n + B.identity

    def _split(self, idx):
        idx = np.asarray(idx, dtype=_INDEX_DTYPE)
        return idx // self.B.n, idx % self.B.n

    def mul_pairs(self, is_, js):
        ia, ib = self._split(is_)
        ja, jb = self._split(js)
        return self.A.mul_pairs(ia, ja) * self.B.n + self.B.mul_pairs(ib, jb)

    def mul_vec(self, i, js, out=None):
        ia, ib = i // self.B.n, i % self.B.n
        ja, jb = self._split(self._all(js))
        return self.A.mul_vec(ia, ja) * self.B.n + self.B.mul_vec(ib, jb)

    def vec_mul(self, is_, j, out=None):
        ja, jb = j // self.B.n, j % self.B.n
        ia, ib = self._split(self._all(is_))
        return self.A.vec_mul(ia, ja) * self.B.n + self.B.vec_mul(ib, jb)

    def inv_all(self):
        return (self.A.inv_all()[:, None] * self.B.n + self.B.inv_all()[None, :]).ravel()

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

    def inv_all(self):
        inv = np.full(self.n, -1, dtype=_INDEX_DTYPE)
        rows, cols = np.nonzero(self.table == self.identity)
        inv[rows] = cols
        return inv

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


class GroupTable:
    """A finite group with uniform probability weight 1/|G| per element."""

    def __init__(self, backend, desc):
        if backend.n > MAX_ORDER:
            raise GroupConstructionError(
                "order %d of %r exceeds cap %d" % (backend.n, desc, MAX_ORDER)
            )
        self.backend = backend
        self.desc = desc
        self.order = backend.n
        self.identity = backend.identity
        self.inv = backend.inv_all()
        self.table = None
        if self.order <= DENSE_LIMIT:
            self.table = np.empty((self.order, self.order), dtype=np.int32)
            for g in range(self.order):
                self.table[g] = backend.mul_vec(g, None)
            self.table.flags.writeable = False
        self._table_t = None     # the table's transpose, built on first use
        # downstream caches (conjugacy data, degrees) live on the instance
        self._conjugacy = None
        self._degrees = None

    @classmethod
    def from_table(cls, table, desc="explicit"):
        """Wrap a raw table without validation, to plant faults: only tests and
        perfbench's selftest (a corrupted table) build one."""
        return cls(_Explicit(table), desc)

    def __repr__(self):
        return "GroupTable(%s, order=%d)" % (self.desc, self.order)

    def mul(self, i, j):
        if self.table is not None:
            return int(self.table[i, j])
        return int(self.backend.mul_pairs(np.array([i]), np.array([j]))[0])

    def mul_vec(self, i, js=None, out=None):
        """i * js elementwise, js None meaning every element; into out when given."""
        if self.table is not None:
            return into(out, self.table[i] if js is None else self.table[i, np.asarray(js)])
        return into(out, self.backend.mul_vec(i, js, out))

    def vec_mul(self, is_, j, out=None):
        """is_ * j elementwise, is_ None meaning every element; into out when given."""
        if self.table is not None:
            return into(out, self.table[:, j] if is_ is None else self.table[np.asarray(is_), j])
        return into(out, self.backend.vec_mul(is_, j, out))

    def mul_pairs(self, is_, js):
        if self.table is not None:
            return self.table[np.asarray(is_), np.asarray(js)]
        return self.backend.mul_pairs(is_, js)

    def translates(self, gs, right=False):
        """The rows y -> g y (y -> y g when right) for g in gs, in the blocks of
        row_chunks(gs, |G|), each a view of one intp buffer that the next block
        overwrites.  A block is one gather from the table, or from its
        transpose when right, else one kernel call per row."""
        if right and self.table is not None and self._table_t is None:
            self._table_t = np.ascontiguousarray(self.table.T)   # row g: y -> y g
            self._table_t.flags.writeable = False
        table = self._table_t if right else self.table
        buf = None
        for block_gs in row_chunks(np.asarray(gs), self.order):
            if buf is None:
                buf = np.empty((len(block_gs), self.order), dtype=np.intp)
            block = buf[:len(block_gs)]
            if table is not None:
                block[...] = table[block_gs]
            elif right:
                for row, g in zip(block, block_gs):
                    self.vec_mul(None, int(g), out=row)
            else:
                for row, g in zip(block, block_gs):
                    self.mul_vec(int(g), out=row)
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
    if kind in ("sl2", "psl2") and (n == 2 or not _is_prime(n) or n > 101):
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
    """|G| of a descriptor, from its backend alone (no table, no inverses)."""
    return _build_backend(parse_descriptor(desc)).n


def build_group(desc):
    """Construct a group from a family descriptor string (or parsed tree)."""
    tree = parse_descriptor(desc) if isinstance(desc, str) else desc
    return GroupTable(_build_backend(tree), _canonical(tree))


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
    n = G.order
    class_of = np.full(n, -1, dtype=_INDEX_DTYPE)
    members_per_class = []
    # conjugation by each generator, as a permutation of the elements
    conj = [G.vec_mul(G.mul_vec(g), int(G.inv[g])) for g in G.generators()]
    seen = np.zeros(n, dtype=bool)
    for seed in range(n):
        if seen[seed]:
            continue
        frontier = np.array([seed], dtype=_INDEX_DTYPE)
        seen[seed] = True
        orbit = [frontier]
        while len(frontier):
            new = []
            for perm in conj:
                u = perm[frontier]
                fresh = u[~seen[u]]
                if len(fresh):
                    fresh = np.unique(fresh)
                    seen[fresh] = True
                    new.append(fresh)
            frontier = np.concatenate(new) if new else np.array([], dtype=_INDEX_DTYPE)
            if len(frontier):
                orbit.append(frontier)
        orbit = np.sort(np.concatenate(orbit))
        class_of[orbit] = len(members_per_class)
        members_per_class.append(orbit)
    order = sorted(range(len(members_per_class)),
                   key=lambda c: (len(members_per_class[c]), int(members_per_class[c][0])))
    remap = np.empty(len(order), dtype=_INDEX_DTYPE)
    for new_idx, old_idx in enumerate(order):
        remap[old_idx] = new_idx
    data = ConjugacyData(
        class_of=remap[class_of],
        class_sizes=[len(members_per_class[c]) for c in order],
        representatives=[int(members_per_class[c][0]) for c in order],
    )
    G._conjugacy = data
    return data
