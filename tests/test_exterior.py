import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactk import contact_lie as cl
from contactk import exterior as ex
from contactk import pseudoforms as pfm
from contactk.enveloping import get_env
from conftest import insert_index

ONE = Fraction(1)


def rand_form(rng, dim, n, terms=2):
    keys = ex.monomials(dim, n)
    out = {}
    for _ in range(terms):
        out[rng.choice(keys)] = Fraction(rng.randint(-4, 4))
    return ex.form(n, {k: v for k, v in out.items() if v})


def test_wedge_square_of_covector_is_zero():
    x0 = ex.one_form(0)
    assert ex.wedge(x0, x0).is_zero()


def test_adding_forms_of_different_degrees_raises():
    # a ValueError, not an assert, so that the guard holds under python -O
    with pytest.raises(ValueError, match="degrees 1 and 2"):
        ex.one_form(0) + ex.wedge(ex.one_form(0), ex.one_form(1))


def test_contact_volume(algebras):
    for data in algebras.values():
        th, om = ex.theta_form(data), ex.omega_form(data)
        assert not ex.wedge(th, ex.wedge_power(om, data.N)).is_zero()


def test_omega_standard_form_in_symplectic_frame(heis2):
    ds = cl.with_symplectic_basis(heis2)
    want = {(i, i + ds.N): ONE for i in range(1, ds.N + 1)}
    assert ex.omega_form(ds).as_dict() == want


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=2),
    p=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_wedge_graded_commutative_and_associative(n, p, seed):
    rng = random.Random(seed)
    a = rand_form(rng, 5, n)
    b = rand_form(rng, 5, p)
    c = rand_form(rng, 5, 1)
    sign = Fraction(-1) ** (n * p)
    assert ex.wedge(a, b).as_dict() == (sign * ex.wedge(b, a)).as_dict()
    assert (
        ex.wedge(ex.wedge(a, b), c).as_dict()
        == ex.wedge(a, ex.wedge(b, c)).as_dict()
    )


def test_d0_of_theta_is_omega(algebras):
    for data in algebras.values():
        assert ex.d0(data, ex.theta_form(data)).as_dict() == \
            ex.omega_form(data).as_dict()


def test_d0_kills_scalars(heis1):
    assert ex.d0(heis1, ex.scalar_form(7)).is_zero()


def test_d0_heisenberg_hand_expansion(heis1):
    # the covector dual to the center picks up the single bracket
    got = ex.d0(heis1, ex.one_form(0))
    assert got.as_dict() == {(1, 2): ONE}
    assert ex.d0(heis1, ex.one_form(1)).is_zero()
    assert ex.d0(heis1, ex.one_form(2)).is_zero()


def test_d0_squares_to_zero(algebras):
    for data in algebras.values():
        for n in range(data.dim + 1):
            for key in ex.monomials(data.dim, n):
                f = ex.form(n, {key: 1})
                assert ex.d0(data, ex.d0(data, f)).is_zero()


def test_contraction_basics(heis1):
    om = ex.omega_form(heis1)
    assert ex.contract(heis1.basis_vector(0), om).is_zero()
    for j in range(3):
        for k in range(3):
            got = ex.contract(heis1.basis_vector(j), ex.one_form(k))
            want = ex.scalar_form(1 if j == k else 0)
            assert got.as_dict() == want.as_dict()


def test_contraction_is_odd_derivation(sl2):
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(0, 2)
        p = rng.randint(0, 2)
        a = rand_form(rng, 3, n)
        b = rand_form(rng, 3, p)
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        lhs = ex.contract(v, ex.wedge(a, b))
        sign = Fraction(-1) ** n
        rhs = ex.wedge(ex.contract(v, a), b) + \
            sign * ex.wedge(a, ex.contract(v, b))
        assert lhs.as_dict() == rhs.as_dict()
        assert ex.contract(v, ex.contract(v, a)).is_zero()


def test_cartan_formula(algebras):
    for data in algebras.values():
        for k in range(data.dim):
            A = data.ad_matrix(k)
            vk = data.basis_vector(k)
            for n in range(data.dim + 1):
                for key in ex.monomials(data.dim, n):
                    f = ex.form(n, {key: 1})
                    lhs = ex.gl_act(A, f)
                    rhs = ex.d0(data, ex.contract(vk, f)) + \
                        ex.contract(vk, ex.d0(data, f))
                    assert lhs.as_dict() == rhs.as_dict()


def test_gl_action_is_even_derivation(sl2):
    rng = random.Random(3)
    A = sl2.ad_matrix(1)
    for _ in range(15):
        a = rand_form(rng, 3, rng.randint(0, 2))
        b = rand_form(rng, 3, rng.randint(0, 1))
        lhs = ex.gl_act(A, ex.wedge(a, b))
        rhs = ex.wedge(ex.gl_act(A, a), b) + \
            ex.wedge(a, ex.gl_act(A, b))
        assert lhs.as_dict() == rhs.as_dict()


def test_reduction_dimensions_dim3(sl2):
    assert ex.compute_I(sl2, 1).rank == 1
    assert len(ex.standard_keys(sl2, 1, ex.compute_I(sl2, 1))) == 2
    assert len(ex.compute_K(sl2, 2)) == 2
    assert len(ex.compute_K(sl2, 3)) == 1


def test_reduction_ranges(algebras):
    for data in algebras.values():
        for n in range(data.dim + 1):
            if n >= data.N + 1:
                assert ex.compute_I(data, n).rank == len(
                    ex.monomials(data.dim, n))
            if n <= data.N:
                assert ex.compute_K(data, n) == []


def test_theta_omega_operators_commute(heis2):
    rng = random.Random(5)
    for _ in range(10):
        a = rand_form(rng, 5, rng.randint(0, 2))
        om = ex.omega_form(heis2)
        tp = ex.theta_mul(heis2, ex.wedge(om, a))
        pt = ex.wedge(om, ex.theta_mul(heis2, a))
        assert tp.as_dict() == pt.as_dict()
        assert ex.theta_mul(heis2, ex.theta_mul(heis2, a)).is_zero()


def test_psi_bar_powers_are_isos(algebras):
    for data in algebras.values():
        for m in range(data.N + 1):
            assert ex.psi_bar_power_is_iso(data, m)


def test_kernel_quotient_iso(algebras):
    for data in algebras.values():
        for m in range(data.N + 1):
            assert ex.lemma_composition_is_iso(data, m)


def test_rumin_constant_complex(algebras, nonuni):
    want = {
        "sl2": [1, 0, 0, 1],
        "heis1": [1, 2, 2, 1],
        "heis2": [1, 4, 5, 5, 4, 1],
        "nonuni": [1, 2, 1, 0],
    }
    for name, data in dict(algebras, nonuni=nonuni).items():
        members = pfm.contact_complex_members(data)
        hmats = pfm.contact_complex_hmats(get_env(data), members)
        cx = pfm.constant_complex(members, hmats)
        assert cx.dims == [m.dim for m in members]
        assert cx.compositions_vanish()
        assert cx.cohomology_dims() == ex.ce_cohomology_dims(data)
        assert cx.cohomology_dims() == want[name]


def test_constant_complex_is_d0_and_its_completion(algebras, nonuni):
    # Map i of the constant complex is d0 read in the carrier coordinates
    # of its target; the middle map first completes f to f - theta ^ gamma,
    # where d0(f) = theta ^ beta + omega ^ gamma.  With theta = x^0 + 2 x^1
    # the middle map of sl2 is not symmetric, so a transposed reading shows.
    tilted = cl.build_contact_data(
        3, {(0, 1, 2): 1, (0, 2, 0): -2, (1, 2, 1): 2}, (1, 2, 0)
    )
    for data in [*algebras.values(), nonuni, tilted]:
        members = pfm.contact_complex_members(data)
        hmats = pfm.contact_complex_hmats(get_env(data), members)
        cx = pfm.constant_complex(members, hmats)
        for i, cols in enumerate(cx.maps):
            want = []
            for f in members[i].basis:
                if i == data.N:
                    _beta, gamma = ex.solve_theta_omega(
                        data, data.N + 1, ex.d0(data, f)
                    )
                    f = f - ex.theta_mul(data, gamma)
                want.append(members[i + 1].form_coords(ex.d0(data, f)))
            assert cols == want


def test_column_algebra_lemma(small_algebras):
    for data in small_algebras.values():
        dim = data.dim
        for k in range(1, dim):
            E = [[Fraction(0)] * dim for _ in range(dim)]
            E[k][0] = ONE
            E = tuple(map(tuple, E))
            for n in range(dim + 1):
                ech = ex.compute_I(data, n)
                for key in ex.monomials(dim, n):
                    img = ex.gl_act(E, ex.form(n, {key: 1}))
                    assert ech.contains(img.as_dict())
                for f in ex.compute_K(data, n):
                    assert ex.gl_act(E, f).is_zero()


# ---------------------------------------------------------------------------
# references: the gather loops that `d0`, `contract`, `gl_act` and `wedge`
# replaced, which visit every monomial of the output degree and insert an
# index into each slot's remainder


def _d0_reference(data, a):
    n = a.degree
    out = {}
    for key in ex.monomials(data.dim, n + 1):
        acc = Fraction(0)
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                rest = tuple(x for t, x in enumerate(key) if t != p and t != q)
                sgn_pq = -ONE if (p + q) % 2 else ONE
                for k, cv in data.bracket_basis(key[p], key[q]):
                    ins = insert_index(k, rest)
                    if ins is not None:
                        acc += sgn_pq * cv * ins[0] * a.get(ins[1])
        if acc:
            out[key] = acc
    return ex.form(n + 1, out)


def _contract_reference(dim, vec, a):
    n = a.degree
    if n == 0:
        return ex.Form(-1, ())
    out = {}
    for key in ex.monomials(dim, n - 1):
        acc = Fraction(0)
        for m in range(dim):
            ins = insert_index(m, key) if vec[m] else None
            if ins is not None:
                acc += vec[m] * ins[0] * a.get(ins[1])
        if acc:
            out[key] = acc
    return ex.form(n - 1, out)


def _gl_act_reference(dim, A, a):
    n = a.degree
    out = {}
    for key in ex.monomials(dim, n):
        acc = Fraction(0)
        for p in range(n):
            rest = tuple(x for t, x in enumerate(key) if t != p)
            sgn_p = -ONE if (p + 1) % 2 else ONE
            for m in range(dim):
                ins = insert_index(m, rest) if A[m][key[p]] else None
                if ins is not None:
                    acc += sgn_p * A[m][key[p]] * ins[0] * a.get(ins[1])
        if acc:
            out[key] = acc
    return ex.form(n, out)


def _wedge_reference(a, b):
    """The wedge with the sign counted as the inversions of the
    permutation that sorts the concatenated keys."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if set(ka) & set(kb):
                continue
            merged = tuple(sorted(ka + kb))
            pos = {idx: p for p, idx in enumerate(merged)}
            perm = [pos[i] for i in ka + kb]
            inv = sum(1 for p in range(len(perm))
                      for q in range(p + 1, len(perm)) if perm[p] > perm[q])
            sign = -ONE if inv % 2 else ONE
            out[merged] = out.get(merged, 0) + sign * va * vb
    return ex.form(a.degree + b.degree, out)


def _sparse_matrix(rng, dim, density=0.3):
    return tuple(
        tuple(Fraction(rng.randint(-3, 3)) if rng.random() < density
              else Fraction(0) for _ in range(dim))
        for _ in range(dim))


def test_operators_match_gather_references_on_every_monomial(
        reference_algebras):
    # d0, contraction by each basis vector and the adjoint action of one
    # basis vector and one sparse random matrix, on every monomial
    rng = random.Random(41)
    for name, data in reference_algebras.items():
        dim = data.dim
        mats = [data.ad_matrix(rng.randrange(dim)), _sparse_matrix(rng, dim)]
        for n in range(dim + 1):
            for key in ex.monomials(dim, n):
                f = ex.form(n, {key: Fraction(rng.randint(1, 5))})
                assert ex.d0(data, f) == _d0_reference(data, f), (name, key)
                for k in range(dim):
                    vk = data.basis_vector(k)
                    assert ex.contract(vk, f) == \
                        _contract_reference(dim, vk, f), (name, key, k)
                for A in mats:
                    assert ex.gl_act(A, f) == \
                        _gl_act_reference(dim, A, f), (name, key, A)


def test_operators_match_gather_references_on_random_inputs(
        reference_algebras):
    rng = random.Random(43)
    for name, data in reference_algebras.items():
        dim = data.dim
        for _ in range(12):
            n = rng.randint(0, dim)
            f = rand_form(rng, dim, n, terms=4)
            A = _sparse_matrix(rng, dim)
            v = tuple(Fraction(rng.randint(-3, 3)) if rng.random() < 0.5
                      else Fraction(0) for _ in range(dim))
            assert ex.gl_act(A, f) == _gl_act_reference(dim, A, f), \
                (name, f, A)
            assert ex.contract(v, f) == _contract_reference(dim, v, f), \
                (name, f, v)
            assert ex.d0(data, f) == _d0_reference(data, f), (name, f)


def test_wedge_matches_inversion_count_reference():
    rng = random.Random(47)
    for dim in (3, 5, 7):
        for _ in range(40):
            a = rand_form(rng, dim, rng.randint(0, dim), terms=3)
            b = rand_form(rng, dim, rng.randint(0, dim), terms=3)
            assert ex.wedge(a, b) == _wedge_reference(a, b), (a, b)


@settings(max_examples=200, deadline=None)
@given(ka=st.sets(st.integers(0, 9), max_size=6),
       kb=st.sets(st.integers(0, 9), max_size=6))
def test_merge_sign_is_parity_of_sorting_permutation(ka, kb):
    ka, kb = tuple(sorted(ka)), tuple(sorted(kb))
    hit = ex.merge(ka, kb)
    if set(ka) & set(kb):
        assert hit is None
        return
    seq = ka + kb
    inv = sum(1 for p in range(len(seq)) for q in range(p + 1, len(seq))
              if seq[p] > seq[q])
    assert hit == ((-1) ** inv, tuple(sorted(seq)))
