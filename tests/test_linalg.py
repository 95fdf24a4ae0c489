import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactk import linalg as la

ONE = Fraction(1)
ZERO = Fraction(0)


def test_echelon_reduce_and_rank():
    ech = la.Echelon()
    assert ech.add({0: ONE, 1: ONE}) == 0
    assert ech.add({1: ONE}) == 1
    assert ech.add({0: ONE}) is None  # dependent on the first two
    assert ech.rank == 2
    # rows stay mutually reduced
    assert ech.rows[0] == {0: ONE}


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
    assert la.matrix_rank(rows) == m.rank()


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
        if la.matrix_rank(cand) == n:
            mat = cand
    inv = la.inverse(mat)
    assert la.mat_mul(mat, inv) == la.identity(n)
    assert la.mat_mul(inv, mat) == la.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        la.inverse(la.mat([[1, 2], [2, 4]]))


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
