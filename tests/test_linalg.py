import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactk import linalg as la

ONE = Fraction(1)
ZERO = Fraction(0)


def matrix_rank(a):
    ech = la.Echelon()
    for row in a:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech.rank


# ---------------------------------------------------------------------------
# reference: the Gauss-Jordan elimination that `linalg` used before its
# semi-echelon core; every row is kept fully reduced as it is added


class GaussJordan:
    def __init__(self, order=None):
        self.order = order if order is not None else lambda k: k
        self.rows = {}

    def pivots(self):
        return sorted(self.rows, key=self.order)

    def reduce(self, vec):
        out = dict(vec)
        for k in [k for k in vec if k in self.rows]:
            c = out.get(k)
            if c:
                la.vec_iadd(out, self.rows[k], -c)
        return out

    def add(self, vec):
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red, key=self.order)
        row = la.vec_scale(red, 1 / red[piv])
        for other in self.rows.values():
            c = other.get(piv)
            if c:
                la.vec_iadd(other, row, -c)
        self.rows[piv] = row
        return piv

    def basis(self):
        return [dict(self.rows[k]) for k in self.pivots()]


_AUG = "#aug"


def _is_aug(k):
    return isinstance(k, tuple) and len(k) == 2 and k[0] is _AUG


class GaussJordanSystem:
    def __init__(self):
        self.ech = GaussJordan(
            order=lambda k: (1, k[1]) if _is_aug(k) else (0, k))
        self.labels = []

    def add_column(self, label, vec):
        aug = dict(vec)
        aug[(_AUG, len(self.labels))] = ONE
        self.labels.append(label)
        self.ech.add(aug)

    def _split(self, vec):
        nat, aug = {}, {}
        for k, v in vec.items():
            if _is_aug(k):
                aug[self.labels[k[1]]] = v
            else:
                nat[k] = v
        return nat, aug

    def solve(self, target):
        nat, aug = self._split(self.ech.reduce(dict(target)))
        if nat:
            return None
        return {lab: -c for lab, c in aug.items()}

    def kernel(self):
        out = []
        for piv in self.ech.pivots():
            nat, aug = self._split(self.ech.rows[piv])
            if not nat:
                out.append(aug)
        return out

    def image_rank(self):
        return sum(1 for piv in self.ech.rows if not _is_aug(piv))


def test_echelon_reduce_and_rank():
    ech = la.Echelon()
    assert ech.add({0: ONE, 1: ONE}) == 0
    assert ech.add({1: ONE}) == 1
    assert ech.add({0: ONE}) is None  # dependent on the first two
    assert ech.rank == 2
    # the reduced basis is built from the semi-echelon rows on demand
    assert ech.basis() == [{0: ONE}, {1: ONE}]


def test_echelon_contains():
    ech = la.Echelon()
    ech.add({"a": Fraction(2), "b": ONE})
    assert ech.contains({"a": Fraction(4), "b": Fraction(2)})
    assert not ech.contains({"a": ONE})


def test_linear_system_solve_and_kernel():
    sys = la.LinearSystem()
    sys.add_column("x", {0: ONE, 1: ONE})
    sys.add_column("y", {1: ONE})
    sys.add_column("z", {0: ONE})  # z = x - y
    sol = sys.solve({0: Fraction(3), 1: ONE})
    acc = {}
    for lab, c in sol.items():
        col = {"x": {0: ONE, 1: ONE}, "y": {1: ONE}, "z": {0: ONE}}[lab]
        la.vec_iadd(acc, col, c)
    assert acc == {0: Fraction(3), 1: ONE}
    kern = sys.kernel()
    assert len(kern) == 1
    combo = kern[0]
    acc = {}
    for lab, c in combo.items():
        col = {"x": {0: ONE, 1: ONE}, "y": {1: ONE}, "z": {0: ONE}}[lab]
        la.vec_iadd(acc, col, c)
    assert acc == {}
    assert sys.solve({2: ONE}) is None
    assert sys.image_rank() == 2


def _sparse_vectors(rng, count, keys):
    """Sparse vectors over `keys`, some of them combinations of others."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            vec = {}
            for v in rng.sample(out, min(len(out), 2)):
                la.vec_iadd(vec, v, Fraction(rng.randint(-2, 2)))
        else:
            vec = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for k in rng.sample(keys, rng.randint(0, len(keys)))}
            vec = {k: c for k, c in vec.items() if c}
        out.append(vec)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_semi_echelon_matches_gauss_jordan(seed):
    rng = random.Random(seed)
    keys = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(8)]
    keys = sorted(set(keys))
    rows = _sparse_vectors(rng, rng.randint(0, 8), keys)
    probes = _sparse_vectors(rng, 4, keys) + rows[:2]
    ech, ref = la.Echelon(), GaussJordan()
    for row in rows:
        assert ech.add(row) == ref.add(row)
    assert ech.rank == len(ref.rows)
    assert set(ech.rows) == set(ref.rows)
    assert ech.basis() == ref.basis()
    backwards = la.Echelon()
    for row in reversed(rows):
        backwards.add(row)
    for vec in probes:
        assert ech.reduce(vec) == ref.reduce(vec) == backwards.reduce(vec)
    assert backwards.basis() == ref.basis()

    sys, ref_sys = la.LinearSystem(), GaussJordanSystem()
    for j, col in enumerate(rows):
        sys.add_column(("col", j), col)
        ref_sys.add_column(("col", j), col)
    assert sys.kernel() == ref_sys.kernel()
    # found mod P and lifted: the same list, in the same entry order
    lifted, fell_back = _modular_kernel(
        [(("col", j), col) for j, col in enumerate(rows)])
    assert not fell_back
    assert _items(lifted) == _items(sys.kernel())
    assert sys.image_rank() == ref_sys.image_rank()
    for vec in probes:
        assert sys.solve(vec) == ref_sys.solve(vec)


def _items(kernel):
    return [list(vec.items()) for vec in kernel]


def _modular_kernel(cols):
    """la.modular_kernel of the (label, column) pairs, and whether it ran
    the exact fallback, the one reader of every column."""
    asked = []

    def columns(labels):
        asked.append(labels)
        return [(lab, vec) for lab, vec in cols
                if labels is None or lab in labels]

    residues = ((lab, la.vec_mod(vec)) for lab, vec in cols)
    return la.modular_kernel(residues, columns), None in asked


def test_rational_lift_roundtrip():
    rng = random.Random(5)
    bound = la.LIFT_BOUND
    assert bound == math.isqrt(la.P // 2)
    values = [ZERO, ONE, -ONE, Fraction(bound), Fraction(-bound, bound - 1),
              Fraction(1, bound)]
    values += [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
               for _ in range(200)]
    for x in values:
        assert la.rational_lift(la.to_mod(x)) == x
    # beyond the bound nothing lifts back to x
    for x in (Fraction(bound + 1), Fraction(1, bound + 2), Fraction(3**40)):
        assert la.rational_lift(la.to_mod(x)) != x
    assert la.to_mod(Fraction(1, la.P)) is None
    assert la.vec_mod({0: ONE, 1: Fraction(2, la.P)}) is None
    assert la.vec_mod({0: Fraction(la.P), 1: Fraction(-1, 2)}) == {
        1: (la.P - 1) // 2}


def test_gf_p_echelon_inverts_mod_p():
    ech = la.Echelon(la.GF_P)
    assert ech.add({0: 3, 1: 5}) == 0
    assert ech.rows[0] == {0: 1, 1: 5 * pow(3, -1, la.P) % la.P}
    assert ech.add({0: 6, 1: 10}) is None
    assert ech.add({1: la.P - 1}) == 1
    assert ech.basis() == [{0: 1}, {1: 1}]


P = la.P
BIG = 3**25  # beyond LIFT_BOUND


@pytest.mark.parametrize("cols", [
    # a denominator divisible by P: the column has no image mod P
    [("a", {0: Fraction(1, P)}), ("b", {0: ONE}), ("c", {1: ONE})],
    # a nonzero entry that vanishes mod P: the rank drops mod P, and the
    # lifted kernel vector {a: 1} fails the exact check
    [("a", {0: Fraction(P)}), ("b", {0: ONE}), ("c", {0: ONE, 1: ONE})],
    # a kernel coefficient -BIG beyond the lifting bound
    [("a", {0: Fraction(BIG), 1: ONE}), ("b", {0: ONE}), ("c", {1: -ONE})],
], ids=["denominator-p", "rank-drop", "big-coefficient"])
def test_modular_kernel_falls_back_to_exact(cols):
    got, fell_back = _modular_kernel(cols)
    assert fell_back
    assert _items(got) == _items(la.exact_kernel(cols))
    assert got  # each case has a kernel, so the comparison is not empty


def test_modular_kernel_lifts_without_fallback():
    cols = [("a", {0: ONE, 1: Fraction(1, 2)}), ("b", {0: Fraction(2), 1: ONE}),
            ("c", {}), ("d", {1: Fraction(-3, 7)}), ("e", {0: Fraction(5)})]
    got, fell_back = _modular_kernel(cols)
    assert not fell_back
    assert _items(got) == _items(la.exact_kernel(cols)) == [
        [("a", ONE), ("d", Fraction(7, 6)), ("e", Fraction(-1, 5))],
        [("b", ONE), ("d", Fraction(7, 3)), ("e", Fraction(-2, 5))],
        [("c", ONE)]]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    n_cols, n_rows = rng.randint(1, 6), rng.randint(1, 6)
    sys = la.LinearSystem()
    cols = []
    for j in range(n_cols):
        col = {i: Fraction(rng.randint(-3, 3)) for i in range(n_rows)}
        col = {k: v for k, v in col.items() if v}
        cols.append(col)
        sys.add_column(j, col)
    assert sys.image_rank() + len(sys.kernel()) == n_cols
    for combo in sys.kernel():
        acc = {}
        for j, c in combo.items():
            la.vec_iadd(acc, cols[j], c)
        assert acc == {}


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(n_rows=st.integers(1, 5), n_cols=st.integers(1, 5), data=st.data())
def test_kernel_and_rank_match_sympy(sympy, n_rows, n_cols, data):
    cols = data.draw(st.lists(
        st.lists(RATIONAL, min_size=n_rows, max_size=n_rows),
        min_size=n_cols, max_size=n_cols))
    # one column combined from the others, so kernels are not left to chance
    weights = data.draw(st.lists(RATIONAL, min_size=n_cols, max_size=n_cols))
    cols.append([sum((w * col[i] for w, col in zip(weights, cols)), ZERO)
                 for i in range(n_rows)])
    sys = la.LinearSystem()
    for j, col in enumerate(cols):
        sys.add_column(j, {i: x for i, x in enumerate(col) if x})
    rows = la.mat(zip(*cols))
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in rows])
    kern = sys.kernel()
    assert len(kern) == len(m.nullspace())
    if kern:
        k = sympy.Matrix([[sympy.Rational(combo.get(j, ZERO).numerator,
                                          combo.get(j, ZERO).denominator)
                           for combo in kern] for j in range(len(cols))])
        assert (m * k).is_zero_matrix
        assert k.rank() == len(kern)
    assert matrix_rank(rows) == m.rank()


def test_mat_comb_empty_zero_and_fractional():
    assert la.mat_comb(3, []) == la.zeros(3)
    a = la.mat([[1, 2], [3, 4]])
    assert la.mat_comb(2, [(0, a)]) == la.zeros(2)
    third = Fraction(1, 3)
    assert la.mat_comb(2, [(third, a), (0, a), (-third, a)]) == la.zeros(2)
    half = la.mat_comb(2, [(Fraction(1, 2), a)])
    assert half == la.mat([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    # integer coefficients and entries still give Fractions
    got = la.mat_comb(2, [(2, ((1, 0), (0, 1)))])
    assert all(type(x) is Fraction for row in got for x in row)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_mat_comb_matches_fold(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    terms = [(rng.choice((0, q())), la.mat([[q() for _ in range(n)]
                                             for _ in range(n)]))
             for _ in range(rng.randint(0, 5))]
    fold = la.zeros(n)
    for c, m in terms:
        fold = la.mat_add(fold, la.mat_scale(m, c))
    assert la.mat_comb(n, terms) == fold


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_inverse_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    mat = None
    while mat is None:
        cand = la.mat(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        )
        if matrix_rank(cand) == n:
            mat = cand
    inv = la.inverse(mat)
    assert la.mat_mul(mat, inv) == la.identity(n)
    assert la.mat_mul(inv, mat) == la.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        la.inverse(la.mat([[1, 2], [2, 4]]))


# references: the dense kernels that `linalg` used before its products
# skipped zero entries; every entry is one sum over a full row and column


def _mat_mul_reference(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt)
                 for ra in a)


def _mat_vec_reference(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _kron_reference(a, b):
    return tuple(
        tuple(a[i][k] * b[j][l] for k in range(len(a[0]))
              for l in range(len(b[0])))
        for i in range(len(a))
        for j in range(len(b))
    )


def _sparse_matrices(n, m):
    """n x m rational matrices, mostly zero and sometimes all zero; n x 0
    is n empty rows."""
    entry = st.one_of(st.just(ZERO), RATIONAL)
    dense = st.lists(st.tuples(*[entry] * m), min_size=n, max_size=n)
    return st.one_of(dense.map(tuple), st.just(la.zeros(n, m)))


def _is_fraction_matrix(m):
    return type(m) is tuple and all(
        type(row) is tuple and all(type(x) is Fraction for x in row)
        for row in m)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 4), k=st.integers(0, 4), m=st.integers(0, 4),
       data=st.data())
def test_sparse_kernels_match_dense_references(n, k, m, data):
    a = data.draw(_sparse_matrices(n, k))
    b = data.draw(_sparse_matrices(k, m))
    v = data.draw(_sparse_matrices(1, k))[0]
    got = la.mat_mul(a, b)
    assert got == _mat_mul_reference(a, b)
    assert _is_fraction_matrix(got)
    assert [len(row) for row in got] == [m if k else 0] * n
    got = la.mat_vec(a, v)
    assert got == _mat_vec_reference(a, v)
    assert _is_fraction_matrix((got,))
    got = la.kron(a, b)
    assert got == _kron_reference(a, b)
    assert _is_fraction_matrix(got)


def test_sparse_kernels_on_fixed_shapes():
    one = la.mat([[3]])
    assert la.mat_mul(one, one) == la.mat([[9]])
    assert la.kron(one, la.zeros(1)) == la.zeros(1)
    # an n x 0 factor: no inner terms, and no columns from an empty b
    empty = ((), ())
    assert la.mat_mul(empty, ()) == empty == _mat_mul_reference(empty, ())
    assert la.mat_vec(empty, ()) == (ZERO, ZERO)
    assert la.kron(empty, one) == empty == _kron_reference(empty, one)
    assert la.kron((), one) == () == la.kron(one, ())


def test_kron_mixed_product():
    a = la.mat([[1, 2], [0, 1]])
    b = la.mat([[0, 1], [1, 0]])
    c = la.mat([[2, 0], [1, 1]])
    d = la.mat([[1, 1], [0, 2]])
    lhs = la.mat_mul(la.kron(a, b), la.kron(c, d))
    rhs = la.kron(la.mat_mul(a, c), la.mat_mul(b, d))
    assert lhs == rhs


def test_commutator_and_trace():
    a = la.mat([[0, 1], [0, 0]])
    b = la.mat([[0, 0], [1, 0]])
    h = la.commutator(a, b)
    assert h == la.mat([[1, 0], [0, -1]])
    assert la.trace(h) == 0
