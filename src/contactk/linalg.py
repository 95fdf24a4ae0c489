"""Exact linear algebra over the rationals.

Two layers live here.  Sparse vectors are plain dicts mapping keys that
compare natively to nonzero field elements.  The Echelon class keeps a
semi-echelon basis of such vectors, each row pivoted on its smallest key;
it gives unique normal forms, and the reduced basis on demand.
LinearSystem reads solutions and kernels off one Echelon of tracked
columns.  Both work over a `Field`: the rationals `QQ` (Fractions), or
`GF_P`, the integers modulo the prime P = 2^61 - 1, which
`modular_kernel` uses to find a kernel over Q cheaply and then checks
exactly.  Dense matrices are tuples of tuples of Fractions with a handful
of helpers (linear combination, product, inverse, Kronecker product)
used by the representation-theoretic modules; the products (mat_mul,
mat_vec, kron) cost per nonzero entry, never multiplying by a zero.

Every result is exact; no floats anywhere.
"""

from bisect import bisect_left, insort
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

P = 2**61 - 1
# numerators and denominators up to sqrt(P/2) lift uniquely from GF(P)
LIFT_BOUND = 2**30 - 1


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


# ---------------------------------------------------------------------------
# fields


class Field:
    """The arithmetic of a field, as `Echelon` uses it: iadd(acc, u, c)
    sets acc += c*u in place, pruning zeros, and returns acc; scale(u, c)
    returns c*u for a nonzero c; inverse(x) is 1/x; one is the unit."""

    def __init__(self, iadd, scale, inverse, one):
        self.iadd, self.scale, self.inverse, self.one = (
            iadd, scale, inverse, one)


QQ = Field(vec_iadd, vec_scale, lambda x: 1 / x, ONE)


def _iadd_mod(acc, u, c):
    if not c:
        return acc
    for k, v in u.items():
        w = (acc.get(k, 0) + c * v) % P
        if w:
            acc[k] = w
        else:
            acc.pop(k, None)
    return acc


GF_P = Field(_iadd_mod, lambda u, c: {k: c * v % P for k, v in u.items()},
             lambda x: pow(x, -1, P), 1)


def to_mod(x):
    """The rational x as an element of GF(P), in range(P); None when P
    divides its denominator."""
    d = x.denominator
    if d == 1:
        return x.numerator % P
    try:
        return x.numerator * pow(d, -1, P) % P
    except ValueError:
        return None


def vec_mod(u):
    """The rational vector u mod P, zeros pruned; None when P divides a
    denominator."""
    out = {}
    for k, v in u.items():
        w = to_mod(v)
        if w is None:
            return None
        if w:
            out[k] = w
    return out


def rational_lift(a):
    """The fraction n/d with n = a*d mod P, |n| <= LIFT_BOUND and
    0 < d <= LIFT_BOUND, or None when there is none.

    It is unique when it exists, since 2 LIFT_BOUND^2 < P.  The extended
    Euclidean algorithm on (P, a), stopped at the first remainder within
    the bound, finds it (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = P, a % P, 0, 1
    while r1 > LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > LIFT_BOUND:
        return None
    return Fraction(r1, t1)


# ---------------------------------------------------------------------------
# elimination


class Echelon:
    """Semi-echelon basis of sparse vectors whose keys compare natively.

    Rows are indexed by their pivot, the smallest key of the row, and have
    coefficient 1 there.  A row holds no key below its pivot, but it may
    hold the pivots of later rows: `add` reduces the new vector only.
    `reduce` clears the pivots in increasing order, so its result holds no
    pivot key; that normal form modulo the span is unique, whatever order
    the rows came in.  The reduced row echelon basis is built by
    back-substitution when `basis` is called.  The entries lie in `field`.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.rows = {}
        self.pivots = []  # the keys of `rows`, sorted

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Normal form of vec modulo the span; returns a new dict."""
        out = dict(vec)
        rows, iadd = self.rows, self.field.iadd
        for piv in self.pivots:
            c = out.get(piv)
            if c:
                iadd(out, rows[piv], -c)
        return out

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Insert vec; returns the new pivot key, or None if dependent."""
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        field = self.field
        self.rows[piv] = field.scale(red, field.inverse(red[piv]))
        insort(self.pivots, piv)
        return piv

    def basis(self):
        """The reduced row echelon basis, in increasing pivot order."""
        return _back_substitute(self.rows, self.pivots, self.field.iadd)


def _back_substitute(rows, pivots, iadd):
    """Fully reduce the rows of `pivots` (sorted) against each other.

    The later rows are reduced first, so one pass clears each row."""
    done = {}
    for piv in reversed(pivots):
        row = dict(rows[piv])
        for k in [k for k in row if k in done]:
            iadd(row, done[k], -row[k])
        done[piv] = row
    return [done[piv] for piv in pivots]


class LinearSystem:
    """Span of labelled vectors over `field`, supporting solve and kernel
    queries.

    Column i is stored in one `Echelon` with each key k as (0, k) and a
    unit tracking key (1, i).  Tracking keys sort after every column key,
    so a row pivoted on a tracking key holds tracking keys only: it is a
    relation among the columns.  Each distinct k gets one (0, k) tuple per
    system, shared by every column that holds it.
    """

    def __init__(self, field=QQ):
        self.ech = Echelon(field)
        self.labels = []
        self._keys = {}

    def add_column(self, label, vec):
        keys = self._keys
        aug = {keys.get(k) or keys.setdefault(k, (0, k)): v
               for k, v in vec.items()}
        aug[(1, len(self.labels))] = self.ech.field.one
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
        reduced form: each vector has coefficient 1 at its first column,
        which no other vector holds.  Vectors come in the order of their
        first columns, and entries in column order."""
        pivots = self.ech.pivots
        relations = pivots[bisect_left(pivots, (1,)):]
        return [{self.labels[i]: c for (_, i), c in sorted(row.items())}
                for row in _back_substitute(self.ech.rows, relations,
                                            self.ech.field.iadd)]

    def image_rank(self):
        return bisect_left(self.ech.pivots, (1,))


def exact_kernel(columns):
    """`LinearSystem.kernel` over Q of the (label, column) pairs."""
    sys = LinearSystem()
    for label, vec in columns:
        sys.add_column(label, vec)
    return sys.kernel()


def modular_kernel(residues, columns):
    """The kernel `exact_kernel` gives for some rational columns, found
    modulo P and lifted to Q where that succeeds.

    `residues` yields (label, column mod P) in column order, the image
    of the column `columns` gives, or None for a column that has no image
    mod P (see `vec_mod`).  `columns(labels)` yields the (label, rational
    column) pairs of the labels in the set `labels`, in column order, and
    of every column when `labels` is None; it is read only for the
    support of the lifted kernel, unless the exact fallback runs.

    The columns are eliminated over GF(P) and every kernel vector is
    lifted entry by entry with `rational_lift`.  Each lifted vector x is
    checked to satisfy sum_i x_i column_i = 0 exactly.  If a column has
    no image mod P, an entry does not lift or a check fails, `exact_kernel`
    runs on all columns instead.  The lifted kernel is that same list:
    - The entries are P-integral, so the rank mod P is at most the rank
      over Q, and dim ker_Q <= dim ker_P.
    - Each lifted vector lies in ker_Q: it was checked exactly.
    - The vectors mod P are the reduced basis of ker_P.  A lift keeps
      the support (a nonzero residue lifts to a nonzero rational) and
      1 lifts to 1, so each lifted vector has coefficient 1 at its own
      first column and 0 at the others': they are independent.  There
      are dim ker_P of them, so they span ker_Q.
    - A subspace has one reduced basis for a fixed column order, so the
      lifted vectors are the vectors of `LinearSystem.kernel` over Q, in
      its order of vectors and of entries.
    A coincidence mod P can only send the work to the exact fallback; it
    cannot change the result."""
    lifted = _lifted_kernel(residues)
    if lifted is not None:
        support = set().union(*lifted)
        exact = dict(columns(support))
        if all(_is_relation(vec, exact) for vec in lifted):
            return lifted
    return exact_kernel(columns(None))


def _lifted_kernel(residues):
    """The kernel over GF(P) of the residues, each entry lifted to Q; None
    when a column has no residue or an entry does not lift."""
    sys = LinearSystem(GF_P)
    for label, vec in residues:
        if vec is None:
            return None
        sys.add_column(label, vec)
    lifted = []
    for vec in sys.kernel():
        out = {}
        for label, a in vec.items():
            x = rational_lift(a)
            if x is None:
                return None
            out[label] = x
        lifted.append(out)
    return lifted


def _is_relation(vec, columns):
    """True iff sum of c * columns[label] over vec's items is zero."""
    acc = {}
    for label, c in vec.items():
        vec_iadd(acc, columns[label], c)
    return not acc


# ---------------------------------------------------------------------------
# dense matrices (tuples of tuples of Fractions)


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


def _row_terms(row):
    """The (j, x) pairs of the nonzero entries x = row[j]."""
    return [(j, x) for j, x in enumerate(row) if x]


def mat_mul(a, b):
    """The product a b, as the sum of x * (row k of b) over the nonzero
    entries x = a[i][k] of each row of a: one multiply per pair of
    nonzero factors, none per zero."""
    width = len(b[0]) if b else 0
    brows = [_row_terms(row) for row in b]
    out = []
    for ra in a:
        acc = [ZERO] * width
        for x, bk in zip(ra, brows):
            if x:
                for j, y in bk:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v) if x), ZERO) for row in a)


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def kron(a, b):
    """Kronecker product acting on the tensor basis e_i (x) e_j; a zero
    entry of a contributes a block of ZERO, with no multiply."""
    width = len(b[0]) if b else 0
    blank = (ZERO,) * width
    brows = [_row_terms(rb) for rb in b]
    rows = []
    for ra in a:
        for terms in brows:
            row = []
            for x in ra:
                if x:
                    block = [ZERO] * width
                    for l, y in terms:
                        block[l] = x * y
                    row += block
                else:
                    row += blank
            rows.append(tuple(row))
    return tuple(rows)


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
