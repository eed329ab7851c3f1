"""Oracles the benchmark checks qrmix's outputs against.

Nothing here calls qrmix's algorithms.  The only things read from the
program are element labels (`G.label`) and the results under test:

- closed-form degree multisets and D: SL(2,p) and PSL(2,p) for odd primes p
  (Fulton-Harris, Representation Theory, section 5.2), S_n by the hook
  length formula (Frame-Robinson-Thrall 1954), cyclic groups, and direct
  products as the multiset of pairwise products;
- the group law recomputed from the labels with the benchmark's own
  arithmetic (2x2 matrices mod p, permutations, residues, pairs);
- exact mixing, triple recurrence and van der Corput values recomputed
  from that arithmetic;
- the paper's inequalities, with D taken from the closed form.
"""

from __future__ import annotations

import math
import re

import numpy as np

TOL = 1e-9          # same slack as the program's PASS_TOL
MATCH_TOL = 1e-9    # relative tolerance of a recomputed value


# ---------------------------------------------------------------------------
# descriptors and closed forms


def parse(desc):
    """Descriptor string -> tree: ("cyclic", n), ..., ("product", left, right)."""
    tree, rest = _parse(desc)
    if rest:
        raise ValueError("trailing text %r in %r" % (rest, desc))
    return tree


def _parse(s):
    if s.startswith("product:"):
        left, rest = _parse(s[len("product:"):])
        right, rest = _parse(rest[1:])
        return ("product", left, right), rest
    m = re.match(r"(cyclic|symmetric|sl2|psl2):(\d+)", s)
    if not m:
        raise ValueError("no oracle for descriptor %r" % s)
    return (m.group(1), int(m.group(2))), s[m.end():]


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_degree(shape):
    n = sum(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = 1
    for i, r in enumerate(shape):
        for j in range(r):
            hooks *= (r - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(n) // hooks


def degrees(tree):
    """Sorted irreducible character degrees of the group the tree names."""
    kind = tree[0]
    if kind == "product":
        return sorted(a * b for a in degrees(tree[1]) for b in degrees(tree[2]))
    n = tree[1]
    if kind == "cyclic":
        return [1] * n
    if kind == "symmetric":
        return sorted(_hook_degree(shape) for shape in _partitions(n))
    p = n
    if kind == "sl2":
        out = [1, p] + [p + 1] * ((p - 3) // 2) + [p - 1] * ((p - 1) // 2)
        return sorted(out + [(p + 1) // 2] * 2 + [(p - 1) // 2] * 2)
    if p % 4 == 1:  # psl2
        out = [1, p] + [p + 1] * ((p - 5) // 4) + [p - 1] * ((p - 1) // 4) + [(p + 1) // 2] * 2
    else:
        out = [1, p] + [p + 1] * ((p - 3) // 4) + [p - 1] * ((p - 3) // 4) + [(p - 1) // 2] * 2
    return sorted(out)


def order(tree):
    kind = tree[0]
    if kind == "product":
        return order(tree[1]) * order(tree[2])
    n = tree[1]
    return {"cyclic": n, "symmetric": math.factorial(n), "sl2": n * (n * n - 1),
            "psl2": n * (n * n - 1) // 2}[kind]


def quasirandom_degree(tree):
    """Smallest degree of a nontrivial irreducible (1 when another linear one exists)."""
    return degrees(tree)[1]


def degree_failures(tree, G, result, D):
    """Compare the program's order, degrees and D with the closed forms."""
    want = degrees(tree)
    out = []
    if sum(d * d for d in want) != order(tree):
        out.append("closed form for %s fails the sum of squares" % (tree,))
    if G.order != order(tree):
        out.append("order %d, closed form %d" % (G.order, order(tree)))
    if list(result.degrees) != want:
        out.append("degrees differ from the closed form (%d vs %d classes)"
                   % (len(result.degrees), len(want)))
    if D != want[1]:
        out.append("D = %s, closed form %d" % (D, want[1]))
    return out


# ---------------------------------------------------------------------------
# the group law, from labels


class Arithmetic:
    """Elements as rows of small integers read from labels, multiplied by rule.

    mul, inv and code act on (..., width) int64 arrays; code maps an element
    to an integer that two labels share exactly when they name one element.
    """

    def __init__(self, tree):
        self.kind = tree[0]
        if self.kind == "product":
            self.left, self.right = Arithmetic(tree[1]), Arithmetic(tree[2])
            self.width = self.left.width + self.right.width
            self.span = self.left.span * self.right.span
            return
        self.n = tree[1]
        self.width = {"cyclic": 1, "symmetric": self.n}.get(self.kind, 4)
        self.span = {"cyclic": self.n, "symmetric": self.n ** self.n}.get(self.kind, self.n ** 4)

    def parse(self, label):
        if self.kind == "product":
            left, right = _split_pair(label)
            return self.left.parse(left) + self.right.parse(right)
        if self.kind == "cyclic":
            return (int(label),)
        if self.kind == "symmetric":
            return tuple(int(c) - 1 for c in label)
        return tuple(int(v) for v in re.findall(r"\d+", label))

    def parse_all(self, labels):
        return np.array([self.parse(lab) for lab in labels], dtype=np.int64).reshape(-1, self.width)

    def _halves(self, A):
        return A[..., :self.left.width], A[..., self.left.width:]

    def mul(self, A, B):
        A, B = np.broadcast_arrays(A, B)
        if self.kind == "product":
            (a1, a2), (b1, b2) = self._halves(A), self._halves(B)
            return np.concatenate([self.left.mul(a1, b1), self.right.mul(a2, b2)], axis=-1)
        if self.kind == "cyclic":
            return (A + B) % self.n
        if self.kind == "symmetric":  # (p o q)(x) = p(q(x))
            return np.take_along_axis(A, B, axis=-1)
        p = self.n
        a, b, c, d = (A[..., i] for i in range(4))
        e, f, g, h = (B[..., i] for i in range(4))
        return np.stack([(a * e + b * g) % p, (a * f + b * h) % p,
                         (c * e + d * g) % p, (c * f + d * h) % p], axis=-1)

    def inv(self, A):
        if self.kind == "product":
            a1, a2 = self._halves(A)
            return np.concatenate([self.left.inv(a1), self.right.inv(a2)], axis=-1)
        if self.kind == "cyclic":
            return (-A) % self.n
        if self.kind == "symmetric":
            return np.argsort(A, axis=-1)
        p = self.n
        return np.stack([A[..., 3], (-A[..., 1]) % p, (-A[..., 2]) % p, A[..., 0]], axis=-1)

    def code(self, A):
        if self.kind == "product":
            a1, a2 = self._halves(A)
            return self.left.code(a1) * self.right.span + self.right.code(a2)
        out = self._digits(A)
        if self.kind == "psl2":  # +-M name one element
            out = np.minimum(out, self._digits((-A) % self.n))
        return out

    def _digits(self, A):
        out = np.zeros(A.shape[:-1], dtype=np.int64)
        for i in range(self.width):
            out = out * self.n + A[..., i]
        return out


def _split_pair(label):
    """'(x,y)' -> ('x', 'y'), splitting at the comma outside all brackets."""
    body = label[1:-1]
    depth = 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise ValueError("not a pair label: %r" % label)


def kernel_failures(G, arith, rng, pairs=256):
    """Seeded cross-check of the program's products and inverses against arith."""
    n = G.order
    i = rng.integers(0, n, pairs)
    j = rng.integers(0, n, pairs)
    k = int(rng.integers(0, n))

    def elems(idx):
        return arith.parse_all([G.label(int(t)) for t in idx])

    A, B = elems(i), elems(j)
    K = elems([k])[0]
    want = arith.code(arith.mul(A, B))
    checks = {
        "mul_pairs": (G.mul_pairs(i, j), want),
        "mul_vec": (G.mul_vec(k, j), arith.code(arith.mul(K, B))),
        "vec_mul": (G.vec_mul(i, k), arith.code(arith.mul(A, K))),
        "mul": (np.array([G.mul(int(a), int(b)) for a, b in zip(i[:16], j[:16])]), want[:16]),
        "inv": (G.inv[i], arith.code(arith.inv(A))),
    }
    out = []
    for name, (got, expect) in checks.items():
        bad = int(np.count_nonzero(arith.code(elems(got)) != expect))
        if bad:
            out.append("kernel %s: %d of %d products differ from the label arithmetic"
                       % (name, bad, len(expect)))
    return out


# ---------------------------------------------------------------------------
# exact recomputation on a small group


class Model:
    """The whole group law of a small group, rebuilt from its labels.

    rows[kind][g, x] is the index of g^-1 . x for the left (g^-1 x), right
    (x g) and conjugation (g^-1 x g) actions.
    """

    def __init__(self, G, arith, chunk=128):
        n = G.order
        E = arith.parse_all([G.label(i) for i in range(n)])
        codes = arith.code(E)
        self.order_by_code = np.argsort(codes)
        self.sorted_codes = codes[self.order_by_code]
        if len(np.unique(codes)) != n:
            raise AssertionError("labels of %s do not name distinct elements" % G.desc)
        self.n = n
        self.inv = self.index(arith.code(arith.inv(E)))
        self.rows = {kind: np.empty((n, n), dtype=np.int64) for kind in ("left", "right", "conjugation")}
        for lo in range(0, n, chunk):
            g = E[lo:lo + chunk, None, :]
            ginv = arith.inv(g)
            left = arith.mul(ginv, E[None, :, :])
            self.rows["left"][lo:lo + chunk] = self.index(arith.code(left))
            self.rows["right"][lo:lo + chunk] = self.index(arith.code(arith.mul(E[None, :, :], g)))
            self.rows["conjugation"][lo:lo + chunk] = self.index(arith.code(arith.mul(left, g)))
        # a conjugacy class is named by its smallest member
        self.class_id = self.rows["conjugation"].min(axis=0)

    def index(self, codes):
        pos = np.searchsorted(self.sorted_codes, codes)
        pos = np.minimum(pos, self.n - 1)
        if np.any(self.sorted_codes[pos] != codes):
            raise AssertionError("product outside the group")
        return self.order_by_code[pos]

    def project(self, kind, v):
        """Average over orbits: a constant for translations, class means for conjugation."""
        if kind in ("left", "right"):
            return np.full_like(v, v.mean())
        sums = np.zeros(self.n, dtype=np.complex128)
        np.add.at(sums, self.class_id, v)
        counts = np.bincount(self.class_id, minlength=self.n)
        return sums[self.class_id] / counts[self.class_id]

    def mixing(self, kind, v1, v2):
        """avg_g |<f1, g.f2> - <P f1, P f2>| with uniform weights."""
        n = self.n
        ref = np.sum(self.project(kind, v1) * np.conj(self.project(kind, v2))) / n
        corr = np.conj(v2)[self.rows[kind]] @ v1 / n
        return float(np.abs(corr - ref).mean())

    def recurrence(self, v1, v2, v3):
        """(total, case i, case ii) of avg_g |avg_x f1(x) f2(g^-1 x) f3(g^-1 x g) - ref|."""
        n = self.n
        L, C = self.rows["left"], self.rows["conjugation"]
        p3 = self.project("conjugation", v3)
        ref = np.sum(v1 * v2.mean() * p3) / n
        base = v2[L]
        total = np.abs((base * v3[C]) @ v1 / n - ref).mean()
        case_i = np.abs((base * p3[C]) @ v1 / n - ref).mean()
        case_ii = np.abs((base * (v3 - p3)[C]) @ v1 / n).mean()
        return float(total), float(case_i), float(case_ii)

    def family_row(self, g, v2, v3):
        return v2[self.rows["left"][g]] * v3[self.rows["conjugation"][g]]

    def vdc(self, v, v2, v3, exact_eps):
        """(avg_g |<f, e_g>|, avg_{g,h} |<e_g, e_gh>| or None unless exact_eps)."""
        n = self.n
        E = v2[self.rows["left"]] * v3[self.rows["conjugation"]]
        rhs = float(np.abs(np.conj(E) @ v / n).mean())
        if not exact_eps:
            return rhs, None
        gram = E @ np.conj(E.T) / n
        gh = self.rows["left"][self.inv]          # gh[g, h] = g h
        eps = float(np.abs(np.take_along_axis(gram, gh, axis=1)).mean())
        return rhs, eps


def close(got, want):
    return abs(got - want) <= MATCH_TOL * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# the paper's inequalities


def mixing_failures(measured, D, n1, n2):
    """measured <= D^(-1/2) ||f1||_2 ||f2||_2."""
    bound = n1 * n2 / math.sqrt(D)
    return [] if measured <= bound + TOL else ["mixing %.6g exceeds D^-1/2 bound %.6g" % (measured, bound)]


def recurrence_failures(rep, D):
    """case i <= eps, case ii <= sqrt(5 eps), total <= i + ii, total <= 4 D^(-1/4)."""
    eps = 1.0 / math.sqrt(D)
    out = []
    if rep.measured_case_i > eps + TOL:
        out.append("case i %.6g > eps %.6g" % (rep.measured_case_i, eps))
    if rep.measured_case_ii > math.sqrt(5 * eps) + TOL:
        out.append("case ii %.6g > sqrt(5 eps)" % rep.measured_case_ii)
    if rep.measured_total > rep.measured_case_i + rep.measured_case_ii + TOL:
        out.append("total exceeds case i + case ii")
    if rep.measured_total > 4 * D ** -0.25 + TOL:
        out.append("total %.6g > 4 D^-1/4" % rep.measured_total)
    if not (close(rep.D, D) and close(rep.bound_total, min(eps + math.sqrt(5 * eps), 4 * math.sqrt(eps)))):
        out.append("report carries D %s / bound %.6g, closed form D %d" % (rep.D, rep.bound_total, D))
    return out


def vdc_failures(res, norm_f):
    """avg_g |<f, e_g>| <= sqrt(eps) ||f||_2, with the report's eps."""
    bound = math.sqrt(res.epsilon_lhs) * norm_f
    out = []
    if res.rhs_integral > bound + TOL:
        out.append("vdc integral %.6g > sqrt(eps)||f|| %.6g" % (res.rhs_integral, bound))
    if not close(res.bound, bound):
        out.append("vdc bound %.6g, recomputed %.6g" % (res.bound, bound))
    return out
