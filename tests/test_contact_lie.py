import gc
import json
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactk import contact_lie as cl
from contactk import linalg as la

ZERO = Fraction(0)
ONE = Fraction(1)


def test_sl2_normalization(sl2):
    # s = -h in input coordinates, barred part spanned by e and f
    assert [row[0] for row in sl2.input_basis] == [ZERO, ZERO, -ONE]
    assert sl2.theta == (-ONE, ZERO, ZERO)
    assert sl2.omega[1][2] == -1  # omega(e ^ f) = -1


def test_heisenberg_normalization(heis1):
    assert [row[0] for row in heis1.input_basis] == [ZERO, ZERO, -ONE]
    assert heis1.omega[1][2] == -1


def test_abelian_is_not_contact():
    with pytest.raises(cl.NotContact):
        cl.build_contact_data(3, {}, (0, 0, 1))


def test_degenerate_theta_is_not_contact():
    # theta vanishing on the center of the Heisenberg algebra
    with pytest.raises(cl.NotContact):
        cl.build_contact_data(3, {(0, 1, 2): 1}, (1, 0, 0))


def test_jacobi_violation_detected():
    consts = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 1, 0): 1}
    with pytest.raises(cl.JacobiViolation):
        cl.build_contact_data(3, consts, (0, 0, 1))


def test_antisymmetry_violation_detected():
    consts = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    consts[0][1][2] = 1  # missing the antisymmetric counterpart
    with pytest.raises(cl.JacobiViolation):
        cl.build_contact_data(3, consts, (0, 0, 1))


def test_even_dimension_rejected():
    with pytest.raises(ValueError):
        cl.build_contact_data(4, {}, (0, 0, 0, 1))


def test_symplectic_basis_heisenberg(heis1):
    # omega(a ^ b) = -1 forces the ordering (b, a)
    assert cl.symplectic_basis(heis1) == (
        heis1.basis_vector(2),
        heis1.basis_vector(1),
    )


def test_symplectic_basis_sl2(sl2):
    assert cl.symplectic_basis(sl2) == (
        sl2.basis_vector(2),
        sl2.basis_vector(1),
    )


def test_symplectic_basis_idempotent(heis2):
    ds = cl.with_symplectic_basis(heis2)
    assert cl.is_symplectic(ds)
    assert cl.symplectic_basis(ds) == tuple(
        ds.basis_vector(i) for i in range(1, ds.dim)
    )


def test_symplectic_duals(heis2):
    ds = cl.with_symplectic_basis(heis2)
    for i in range(1, ds.N + 1):
        assert ds.dual_vector(i) == tuple(-x for x in ds.basis_vector(i + ds.N))
        assert ds.dual_vector(i + ds.N) == ds.basis_vector(i)


@pytest.mark.parametrize("name", ["sl2", "heis2", "nonuni", "heis2_rebased"])
def test_rebase_to_identity_is_unchanged(name, request):
    data = request.getfixturevalue(name)
    same = cl.rebase(data, [data.basis_vector(i) for i in range(data.dim)])
    assert same == data


@pytest.mark.parametrize("name", ["heis2", "heis2_rebased"])
def test_rebase_and_back_restores_constants(name, request):
    # keep s and mix ker theta by a seeded invertible integer matrix B;
    # rebasing to B and then to B^-1 (coordinates in the new basis) must
    # give back the structure constants and the datum
    data = request.getfixturevalue(name)
    rng = random.Random(3)
    n2 = data.dim - 1
    while True:
        block = [[rng.randint(-2, 2) for _ in range(n2)] for _ in range(n2)]
        try:
            la.inverse(block)
            break
        except ValueError:
            continue
    basis = [data.basis_vector(0)] + [
        (ZERO,) + tuple(Fraction(block[i][k]) for i in range(n2))
        for k in range(n2)]
    moved = cl.rebase(data, basis)
    assert moved.c != data.c
    back = cl.rebase(moved, list(zip(*la.inverse(tuple(zip(*basis))))))
    assert back.c == data.c
    assert back == data


def test_remark_identity(algebras, nonuni):
    for data in list(algebras.values()) + [nonuni]:
        assert cl.check_remark_identity(data)


def test_remark_identity_detects_corruption(nonuni):
    # both sums vanish identically on the Heisenberg algebra, so use the
    # non-unimodular datum and perturb a structure constant
    def bump(v, i, j, k):
        return v + 1 if (i, j, k) == (1, 2, 1) else v

    corrupted = cl.ContactLieData(
        dim=nonuni.dim,
        c=tuple(
            tuple(
                tuple(bump(v, i, j, k) for k, v in enumerate(row))
                for j, row in enumerate(plane)
            )
            for i, plane in enumerate(nonuni.c)
        ),
        theta=nonuni.theta,
        omega=nonuni.omega,
        rmat=nonuni.rmat,
        trace_ad=nonuni.trace_ad,
        input_basis=nonuni.input_basis,
    )
    assert not cl.check_remark_identity(corrupted)


def test_omega_pairings(algebras):
    for data in algebras.values():
        dim = data.dim
        for i in range(dim):
            for j in range(dim):
                lhs = data.omega_pair(data.basis_vector(i), data.basis_vector(j))
                rhs = -data.theta_of(
                    data.bracket_vec(data.basis_vector(i), data.basis_vector(j))
                )
                assert lhs == rhs
        for i in range(1, dim):
            for k in range(1, dim):
                want = ONE if i == k else ZERO
                assert data.omega_pair(
                    data.dual_vector(i), data.basis_vector(k)) == want
                assert data.omega_pair(
                    data.dual_vector(i), data.dual_vector(k)
                ) == -data.rmat[i][k]


def test_nonunimodular_trace(nonuni):
    assert nonuni.trace_ad == (ZERO, ZERO, -ONE)


def test_load_algebra_roundtrip(tmp_path):
    doc = """{
      "dim": 3,
      "brackets": [[0, 1, 2, 1, 2]],
      "theta": [0, "1/3", 1]
    }"""
    path = tmp_path / "algebra.json"
    path.write_text(doc)
    data = cl.load_algebra_file(str(path))
    assert data.N == 1
    assert cl.check_remark_identity(data)
    # scrambled theta still normalizes to the standard frame
    assert data.theta == (-ONE, ZERO, ZERO)


def test_load_algebra_bad_theta_length():
    with pytest.raises(ValueError):
        cl.load_algebra('{"dim": 3, "brackets": [], "theta": [1, 0]}')


def test_load_algebra_rejects_a_huge_exponent():
    # 92 bytes that would build million-digit integers: rejected before
    # Fraction runs, at the digit limit json puts on integer tokens
    doc = ('{"dim": 3, "brackets": [[0, 1, 2, 1, 1]], "theta": '
           '["1e1000000", "1e-1000000", "3e1000000"]}')
    with pytest.raises(ValueError, match="digits"):
        cl.load_algebra(doc)
    limit = sys.get_int_max_str_digits()
    assert cl.parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert cl.parse_rational(f"-2.5e-{limit - 3}") == \
        Fraction(-25, 10 ** (limit - 2))
    for text in (f"1e{limit}", f"1e-{limit}", f"1.5e{limit - 1}",
                 f"1e{'9' * 30}", f"1e+{limit}"):
        with pytest.raises(ValueError, match="digits"):
            cl.parse_rational(text)


def test_resolve_algebra_builtin():
    assert cl.resolve_algebra("heisenberg:2").dim == 5


@settings(max_examples=20, deadline=None)
@given(
    scale=st.integers(min_value=1, max_value=5),
    shift=st.integers(min_value=-3, max_value=3),
)
def test_build_invariant_under_theta_scaling(scale, shift):
    # rescaling theta and adding a multiple of a barred covector keeps the
    # datum contact, and normalization restores all invariants
    consts = {(0, 1, 2): 1}
    theta = (Fraction(shift), ZERO, Fraction(scale))
    data = cl.build_contact_data(3, consts, theta)
    assert data.theta == (-ONE, ZERO, ZERO)
    assert cl.check_remark_identity(data)
    om = data.omega
    assert om[1][2] != 0 and om[1][2] == -om[2][1]


def test_random_inputs_build_or_raise_declared_errors():
    # every random datum either normalizes (and then satisfies the trace
    # identity) or raises one of the two declared validation errors
    import itertools
    import random

    rng = random.Random(0)
    built = 0
    for _ in range(120):
        dim = rng.choice((3, 5))
        consts = {}
        for (i, j) in itertools.combinations(range(dim), 2):
            for k in range(dim):
                if rng.random() < 0.25:
                    consts[(i, j, k)] = Fraction(rng.randint(-2, 2))
        theta = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
        try:
            data = cl.build_contact_data(dim, consts, theta)
        except (cl.JacobiViolation, cl.NotContact):
            continue
        built += 1
        assert data.theta[0] == -1
        assert cl.check_remark_identity(data)
    assert built > 10  # the generator finds plenty of genuine contact data


def test_derived_objects_do_not_keep_the_datum_alive():
    # what is derived from a datum lives on the datum, not in module
    # caches, so a datum nothing refers to is collected
    from contactk import exterior, pseudoalgebra, pseudoforms, sp_rep

    data = cl.resolve_algebra("heisenberg:1")
    rep = sp_rep.fundamental_rep(data, sp_rep.sp_gens_for(data), 1)
    spec = pseudoalgebra.TensorModuleSpec(
        data, pseudoforms.trivial_twist(data), rep, Fraction(1)
    )
    assert pseudoalgebra.singular_space(spec)
    assert exterior.theta_omega_solver(data, data.N + 1) is not None
    ref = weakref.ref(data)
    del data, rep, spec
    gc.collect()
    assert ref() is None


# any JSON value; integers stay small, and dim <= 9 wherever it is drawn
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.floats(),
              st.text(max_size=4)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=3), kids,
                                           max_size=3)),
    max_leaves=8)
_RATIONALISH = st.one_of(
    st.integers(-3, 3),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(-1, 3)),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    _JSON)


@st.composite
def _algebra_documents(draw):
    """Documents in the input format with small entries; most have up to
    three fields or entries replaced by an arbitrary value, or removed."""
    dim = draw(st.sampled_from((3, 5, 7)))
    small = st.integers(-2, 2)
    index = st.integers(0, dim - 1)
    bracket = st.tuples(index, index, index, small, st.integers(1, 3))
    doc = {"dim": dim,
           "brackets": draw(st.lists(bracket.map(list), max_size=5)),
           "theta": draw(st.lists(small, min_size=dim, max_size=dim))}
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(("dim", "brackets", "theta", "drop",
                                      "bracket", "slot", "coefficient")))
        if where == "dim":
            doc["dim"] = draw(st.one_of(st.integers(max_value=9), _JSON))
        elif where in ("brackets", "theta"):
            doc[where] = draw(st.one_of(st.lists(_RATIONALISH, max_size=9),
                                        _JSON))
        elif where == "drop":
            doc.pop(draw(st.sampled_from(("dim", "brackets", "theta"))),
                    None)
        else:
            key = "theta" if where == "coefficient" else "brackets"
            rows = doc.get(key)
            if not isinstance(rows, list) or not rows:
                continue
            at = draw(st.integers(0, len(rows) - 1))
            if where == "coefficient":
                rows[at] = draw(_RATIONALISH)
            elif where == "bracket" or not isinstance(rows[at], list) or \
                    not rows[at]:
                rows[at] = draw(st.one_of(st.lists(_RATIONALISH, max_size=6),
                                          _JSON))
            else:
                slot = draw(st.integers(0, len(rows[at]) - 1))
                rows[at][slot] = draw(st.one_of(st.integers(-1, 9), _JSON))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_algebra_documents(), _JSON))
def test_any_small_document_loads_or_raises_value_error(doc):
    # the input boundary: a malformed datum is a ValueError, never another
    # exception (cli turns a ValueError into one error line and exit 2)
    try:
        data = cl.load_algebra(json.dumps(doc))
    except ValueError:
        return
    assert data.dim == doc["dim"] <= 9
