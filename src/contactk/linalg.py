"""Exact linear algebra over the rationals.

Two layers live here.  Sparse vectors are plain dicts mapping keys that
compare natively to nonzero Fractions.  The Echelon class keeps a
semi-echelon basis of such vectors, each row pivoted on its smallest key;
it gives unique normal forms, and the reduced basis on demand.
LinearSystem reads solutions and kernels off one Echelon of tracked
columns.  Dense matrices are tuples of tuples of Fractions with a handful
of helpers (linear combination, product, inverse, Kronecker product)
used by the representation-theoretic modules.

Everything is exact; no floats anywhere.
"""

from bisect import bisect_left, insort
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sparse vectors


def vec_scale(u, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in u.items()}


def vec_put(acc, key, c):
    """acc[key] += c in place, pruning a zero."""
    w = acc.get(key, ZERO) + c
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def vec_iadd(acc, u, c=ONE):
    """acc += c*u in place, pruning zeros."""
    if c == 0:
        return acc
    for k, v in u.items():
        w = acc.get(k, ZERO) + c * v
        if w:
            acc[k] = w
        else:
            acc.pop(k, None)
    return acc


def vec_add(u, v):
    out = dict(u)
    return vec_iadd(out, v)


def vec_sub(u, v):
    out = dict(u)
    return vec_iadd(out, v, -ONE)


class Echelon:
    """Semi-echelon basis of sparse vectors whose keys compare natively.

    Rows are indexed by their pivot, the smallest key of the row, and have
    coefficient 1 there.  A row holds no key below its pivot, but it may
    hold the pivots of later rows: `add` reduces the new vector only.
    `reduce` clears the pivots in increasing order, so its result holds no
    pivot key; that normal form modulo the span is unique, whatever order
    the rows came in.  The reduced row echelon basis is built by
    back-substitution when `basis` is called.
    """

    def __init__(self):
        self.rows = {}
        self.pivots = []  # the keys of `rows`, sorted

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Normal form of vec modulo the span; returns a new dict."""
        out = dict(vec)
        rows = self.rows
        for piv in self.pivots:
            c = out.get(piv)
            if c:
                vec_iadd(out, rows[piv], -c)
        return out

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Insert vec; returns the new pivot key, or None if dependent."""
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        self.rows[piv] = vec_scale(red, 1 / red[piv])
        insort(self.pivots, piv)
        return piv

    def basis(self):
        """The reduced row echelon basis, in increasing pivot order."""
        return _back_substitute(self.rows, self.pivots)


def _back_substitute(rows, pivots):
    """Fully reduce the rows of `pivots` (sorted) against each other.

    The later rows are reduced first, so one pass clears each row."""
    done = {}
    for piv in reversed(pivots):
        row = dict(rows[piv])
        for k in [k for k in row if k in done]:
            vec_iadd(row, done[k], -row[k])
        done[piv] = row
    return [done[piv] for piv in pivots]


class LinearSystem:
    """Span of labelled vectors, supporting solve and kernel queries.

    Column i is stored in one `Echelon` with each key k as (0, k) and a
    unit tracking key (1, i).  Tracking keys sort after every column key,
    so a row pivoted on a tracking key holds tracking keys only: it is a
    relation among the columns.  Each distinct k gets one (0, k) tuple per
    system, shared by every column that holds it.
    """

    def __init__(self):
        self.ech = Echelon()
        self.labels = []
        self._keys = {}

    def add_column(self, label, vec):
        keys = self._keys
        aug = {keys.get(k) or keys.setdefault(k, (0, k)): v
               for k, v in vec.items()}
        aug[(1, len(self.labels))] = ONE
        self.labels.append(label)
        self.ech.add(aug)

    def solve(self, target):
        """Coefficients {label: c} with sum(c * column) == target, or None."""
        red = self.ech.reduce({(0, k): v for k, v in target.items()})
        if any(tag == 0 for tag, _ in red):
            return None
        return {self.labels[i]: -c for (_, i), c in red.items()}

    def kernel(self):
        """Basis of {x : sum_i x_i column_i = 0} as {label: c} dicts, in
        reduced form."""
        pivots = self.ech.pivots
        relations = pivots[bisect_left(pivots, (1,)):]
        return [{self.labels[i]: c for (_, i), c in row.items()}
                for row in _back_substitute(self.ech.rows, relations)]

    def image_rank(self):
        return bisect_left(self.ech.pivots, (1,))


# ---------------------------------------------------------------------------
# dense matrices (tuples of tuples of Fractions)


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(n, m=None):
    m = n if m is None else m
    return tuple((ZERO,) * m for _ in range(n))


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def elementary(n, i, j):
    """The n x n matrix unit E_ij."""
    return tuple(
        tuple(ONE if (r == i and c == j) else ZERO for c in range(n))
        for r in range(n)
    )


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_comb(n, terms):
    """The n x n matrix sum of c * m over the (c, m) pairs of `terms`;
    a zero coefficient is skipped."""
    acc = [[ZERO] * n for _ in range(n)]
    for c, m in terms:
        if not c:
            continue
        c = Fraction(c)
        for row, mrow in zip(acc, m):
            for j, x in enumerate(mrow):
                if x:
                    row[j] += c * x
    return tuple(map(tuple, acc))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def kron(a, b):
    """Kronecker product acting on the tensor basis e_i (x) e_j."""
    nb = len(b)
    return tuple(
        tuple(a[i][k] * b[j][l] for k in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for j in range(nb)
    )


def inverse(a):
    n = len(a)
    sys = LinearSystem()
    for j in range(n):
        sys.add_column(j, {i: a[i][j] for i in range(n) if a[i][j]})
    cols = []
    for i in range(n):
        sol = sys.solve({i: ONE})
        if sol is None:
            raise ValueError("matrix is singular")
        cols.append(tuple(sol.get(j, ZERO) for j in range(n)))
    return tuple(zip(*cols))
