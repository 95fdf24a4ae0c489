"""Exact linear algebra over the rationals.

Two layers live here.  Sparse vectors are plain dicts mapping hashable keys
to nonzero Fractions; the Echelon class maintains a reduced row echelon
basis of such vectors under a deterministic key order and supports
membership reduction, kernel extraction and solving.  Dense matrices are
tuples of tuples of Fractions with a handful of helpers (product, inverse,
Kronecker product) used by the representation-theoretic modules.

Everything is exact; no floats anywhere.
"""

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
    """Reduced row echelon basis of sparse vectors.

    Rows are indexed by their pivot key.  The invariant is full reduction:
    no row contains the pivot key of another row, and every row has
    coefficient 1 at its own pivot.  The pivot of a vector is its smallest
    key under `order` (default: natural sort of the keys).  With that
    invariant, reducing a vector needs a single pass over its pivot keys.
    """

    def __init__(self, order=None):
        self.order = order if order is not None else lambda k: k
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows, key=self.order)

    def reduce(self, vec):
        """Fully reduce vec against the basis; returns a new dict."""
        out = dict(vec)
        for k in [k for k in vec if k in self.rows]:
            c = out.get(k)
            if c:
                vec_iadd(out, self.rows[k], -c)
        return out

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Insert vec; returns the new pivot key, or None if dependent."""
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red, key=self.order)
        row = vec_scale(red, 1 / red[piv])
        # keep existing rows reduced against the new pivot
        for other in self.rows.values():
            c = other.get(piv)
            if c:
                vec_iadd(other, row, -c)
        self.rows[piv] = row
        return piv

    def extend(self, vecs):
        for v in vecs:
            self.add(v)
        return self

    def basis(self):
        return [dict(self.rows[k]) for k in self.pivots()]


_AUG = "#aug"


def _aug_order(k):
    """Pivot order of a `LinearSystem`: natural keys before tracking keys."""
    if isinstance(k, tuple) and len(k) == 2 and k[0] is _AUG:
        return (1, k[1])
    return (0, k)


class LinearSystem:
    """Span of labelled vectors, supporting solve and kernel queries.

    Columns are added as (label, vector) pairs; internally each vector is
    augmented with a unit tracking key so that solving and kernel
    extraction fall out of the same echelon.
    """

    def __init__(self):
        self.ech = Echelon(order=_aug_order)
        self.labels = []

    def add_column(self, label, vec):
        idx = len(self.labels)
        self.labels.append(label)
        aug = dict(vec)
        aug[(_AUG, idx)] = ONE
        self.ech.add(aug)

    def _split(self, vec):
        nat, aug = {}, {}
        for k, v in vec.items():
            if isinstance(k, tuple) and len(k) == 2 and k[0] is _AUG:
                aug[self.labels[k[1]]] = v
            else:
                nat[k] = v
        return nat, aug

    def solve(self, target):
        """Coefficients {label: c} with sum(c * column) == target, or None."""
        red = self.ech.reduce(dict(target))
        nat, aug = self._split(red)
        if nat:
            return None
        return {lab: -c for lab, c in aug.items()}

    def kernel(self):
        """Basis of {x : sum_i x_i column_i = 0} as {label: c} dicts."""
        out = []
        for piv in self.ech.pivots():
            nat, aug = self._split(self.ech.rows[piv])
            if not nat:
                out.append(aug)
        return out

    def image_rank(self):
        return sum(1 for piv in self.ech.rows if not (
            isinstance(piv, tuple) and len(piv) == 2 and piv[0] is _AUG))


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


def matrix_rank(a):
    ech = Echelon()
    for row in a:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech.rank
