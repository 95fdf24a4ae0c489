import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactk import enveloping as ev
from contactk import linalg
from contactk.enveloping import get_env

ZERO = Fraction(0)
ONE = Fraction(1)


def gen(dim, i):
    return ev.generator(dim, i)


def antipode(env, u):
    """S(u), extended linearly from `Enveloping.antipode_basis`."""
    out = {}
    for I, c in u.items():
        linalg.vec_iadd(out, env.antipode_basis(I), c)
    return out


def test_divided_square(heis1):
    env = get_env(heis1)
    assert env.mul(gen(3, 1), gen(3, 1)) == {(0, 2, 0): Fraction(2)}


def test_heisenberg_defining_relation(heis1):
    # b a = a b - z; in the normalized frame z = -e_0
    env = get_env(heis1)
    assert env.mul(gen(3, 2), gen(3, 1)) == {
        (0, 1, 1): ONE,
        (1, 0, 0): ONE,
    }


def test_sl2_relation_and_associativity_spot(sl2):
    env = get_env(sl2)
    fe = env.mul(gen(3, 2), gen(3, 1))
    ef = env.mul(gen(3, 1), gen(3, 2))
    diff = dict(fe)
    linalg.vec_iadd(diff, ef, -ONE)
    assert diff == {(1, 0, 0): ONE}  # [f, e] = -h = e_0
    lhs = env.mul(env.mul(gen(3, 1), gen(3, 2)), gen(3, 0))
    rhs = env.mul(gen(3, 1), env.mul(gen(3, 2), gen(3, 0)))
    assert lhs == rhs


def test_defining_relations(algebras):
    for data in algebras.values():
        env = get_env(data)
        for i in range(data.dim):
            for j in range(data.dim):
                lhs = env.bracket(gen(data.dim, i), gen(data.dim, j))
                rhs = ev.from_vector(
                    data.bracket_vec(data.basis_vector(i), data.basis_vector(j))
                )
                assert lhs == rhs


def test_associativity_exhaustive_small(sl2):
    env = get_env(sl2)
    idx = ev.multi_indices(3, 2)
    for I in idx:
        for J in idx:
            left = env.mono_mul(I, J)
            for K in idx:
                assert env.mul(left, {K: ONE}) == env.mul(
                    {I: ONE}, env.mono_mul(J, K)
                )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_associativity_random(seed):
    from contactk.contact_lie import heisenberg

    data = heisenberg(2)
    env = get_env(data)
    rng = random.Random(seed)
    idx = ev.multi_indices(5, 2)

    def rand():
        return {rng.choice(idx): Fraction(rng.randint(-3, 3))}

    u, v, w = rand(), rand(), rand()
    assert env.mul(env.mul(u, v), w) == env.mul(u, env.mul(v, w))


def test_filtration_compatibility(heis2):
    env = get_env(heis2)
    idx = ev.multi_indices(5, 2)
    for I in idx:
        for J in idx:
            prod = env.mono_mul(I, J)
            cb = ev.contact_degree(I) + ev.contact_degree(J)
            pb = sum(I) + sum(J)
            for K in prod:
                assert ev.contact_degree(K) <= cb
                assert sum(K) <= pb


def test_contact_degree_convention():
    # the distinguished direction counts twice
    assert ev.contact_degree((1, 0, 0)) == 2
    assert ev.contact_degree((0, 1, 1)) == 2
    assert ev.contact_degree((2, 1, 0)) == 5


def test_coproduct_basis(heis1):
    env = get_env(heis1)
    assert env.coproduct({(0, 0, 0): ONE}) == {((0, 0, 0), (0, 0, 0)): ONE}
    got = env.coproduct({(0, 2, 0): ONE})
    assert got == {
        ((0, 0, 0), (0, 2, 0)): ONE,
        ((0, 1, 0), (0, 1, 0)): ONE,
        ((0, 2, 0), (0, 0, 0)): ONE,
    }


def tensor_mul_fold(env, t1, t2):
    """The product in H (x) H as a nested loop over the terms of both
    factors and of both legs' products."""
    out = {}
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            for A, ca in env.mono_mul(a1, a2).items():
                for B, cb in env.mono_mul(b1, b2).items():
                    key = (A, B)
                    w = out.get(key, ZERO) + c1 * c2 * ca * cb
                    if w:
                        out[key] = w
                    else:
                        out.pop(key, None)
    return out


def test_coproduct_is_algebra_map(sl2):
    env = get_env(sl2)
    rng = random.Random(0)
    idx = ev.multi_indices(3, 2)
    for _ in range(15):
        u = {rng.choice(idx): Fraction(rng.randint(-3, 3))}
        v = {rng.choice(idx): Fraction(rng.randint(-3, 3))}
        assert env.coproduct(env.mul(u, v)) == tensor_mul_fold(
            env, env.coproduct(u), env.coproduct(v)
        )


@pytest.mark.parametrize("name", ["sl2", "heis2"])
def test_tensor_mul_matches_fold(name, request):
    data = request.getfixturevalue(name)
    env = get_env(data)
    rng = random.Random(17)
    idx = ev.multi_indices(data.dim, 2)

    def coeff():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    def rand_element():
        return {rng.choice(idx): coeff() for _ in range(3)}

    def rand_tensor():
        return {(rng.choice(idx), rng.choice(idx)): coeff() for _ in range(3)}

    for _ in range(10):
        x, y = rand_tensor(), rand_tensor()
        assert env.tensor_mul(x, y) == tensor_mul_fold(env, x, y)
        u, v = rand_element(), rand_element()
        assert env.coproduct(env.mul(u, v)) == env.tensor_mul(
            env.coproduct(u), env.coproduct(v))


def test_antipode_on_generators_and_squares(sl2):
    env = get_env(sl2)
    assert antipode(env, gen(3, 1)) == {(0, 1, 0): -ONE}
    assert antipode(env, {(0, 2, 0): ONE}) == {(0, 2, 0): ONE}


def test_antipode_axiom_exhaustive(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        for I in ev.multi_indices(3, 4):
            want = ev.unit(3) if sum(I) == 0 else {}
            acc, acc2 = {}, {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                linalg.vec_iadd(acc, env.mul(env.antipode_basis(J), {K: ONE}), c)
                linalg.vec_iadd(acc2, env.mul({J: ONE}, env.antipode_basis(K)), c)
            assert acc == want
            assert acc2 == want


def test_counit(heis1):
    env = get_env(heis1)
    assert env.counit(ev.unit(3)) == 1
    assert env.counit(gen(3, 1)) == 0
    assert env.counit({(0, 1, 0): Fraction(2), (0, 0, 0): Fraction(5)}) == 5


def test_counit_collapse_triple(sl2):
    env = get_env(sl2)
    for I in ev.multi_indices(3, 3):
        acc = {}
        for (J, K), c in env.coproduct({I: ONE}).items():
            for (J1, J2), c2 in env.coproduct({J: ONE}).items():
                for A, ca in env.mul(
                        env.antipode_basis(J1), {J2: ONE}).items():
                    key = (A, K)
                    w = acc.get(key, ZERO) + c * c2 * ca
                    if w:
                        acc[key] = w
                    else:
                        acc.pop(key, None)
        assert acc == {((0, 0, 0), I): ONE}


def test_dual_pairing_is_kronecker(heis1):
    env = get_env(heis1)
    x = ev.dual_monomial(3, (0, 1, 1), 4)
    assert env.dual_pair(x, {(0, 1, 1): Fraction(5)}) == 5
    assert env.dual_pair(x, {(0, 2, 0): Fraction(5)}) == 0


def test_dual_product_is_monomial():
    xi = ev.dual_covector(3, 1, 4)
    xj = ev.dual_covector(3, 2, 4)
    assert ev.dual_mul(xi, xj).coeffs == {(0, 1, 1): ONE}
    assert ev.dual_mul(xi, xi).coeffs == {(0, 2, 0): ONE}


def test_dual_left_action_linear_part(algebras):
    for data in algebras.values():
        env = get_env(data)
        dim = data.dim
        for i in range(dim):
            for j in range(dim):
                res = ev.d_left(env, data.basis_vector(i),
                                ev.dual_covector(dim, j, 4))
                want = {}
                if i == j:
                    want[ev.unit_index(dim)] = -ONE
                for k in range(i):
                    c = data.c[i][k][j]
                    if c:
                        key = tuple(ev.eps(dim, k))
                        want[key] = want.get(key, ZERO) - c
                got = {I: c for I, c in res.coeffs.items() if sum(I) <= 1}
                assert got == {k: v for k, v in want.items() if v}


def test_dual_right_action_linear_part(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        for i in range(3):
            for j in range(3):
                res = ev.d_right(env, ev.dual_covector(3, j, 4),
                                 data.basis_vector(i))
                want = {}
                if i == j:
                    want[(0, 0, 0)] = -ONE
                for k in range(i + 1, 3):
                    c = data.c[i][k][j]
                    if c:
                        key = tuple(ev.eps(3, k))
                        want[key] = want.get(key, ZERO) + c
                got = {I: c for I, c in res.coeffs.items() if sum(I) <= 1}
                assert got == {k: v for k, v in want.items() if v}


def test_actions_differ_by_coadjoint(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        for i in range(3):
            for j in range(3):
                x = ev.dual_covector(3, j, 6)
                left = ev.d_left(env, data.basis_vector(i), x)
                right = ev.d_right(env, x, data.basis_vector(i))
                diff = left.add(right.scale(-ONE))
                g = gen(3, i)
                for J in ev.contact_indices(3, diff.truncation):
                    br = env.bracket(g, {J: ONE})
                    assert diff.coeffs.get(J, ZERO) == -env.dual_pair(x, br)


def test_truncation_overflow(heis1):
    env = get_env(heis1)
    with pytest.raises(ev.TruncationOverflow):
        ev.d_left(env, heis1.basis_vector(0), ev.dual_covector(3, 1, 1))
    with pytest.raises(ev.TruncationOverflow):
        ev.DualElement(3, -1, {})


def test_mixed_truncation_takes_minimum():
    a = ev.dual_covector(3, 1, 5)
    b = ev.dual_covector(3, 2, 3)
    assert ev.dual_mul(a, b).truncation == 3
    assert a.add(b).truncation == 3


def test_symmetrization_identities_exhaustive(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        gens = [gen(3, i) for i in range(3)]
        for t in itertools.product(range(3), repeat=3):
            assert ev.symmetrization_identity_check(
                env, gens[t[0]], gens[t[1]], gens[t[2]]
            )
        for t in itertools.product(range(3), repeat=4):
            assert ev.symmetrization_identity_check(
                env, gens[t[0]], gens[t[1]], gens[t[2]], gens[t[3]]
            )


def test_symmetrization_trivial_on_repeated_generator(heis2):
    env = get_env(heis2)
    a = gen(5, 3)
    assert ev.symmetrization_identity_check(env, a, a, a)
    assert ev.symmetrization_identity_check(env, a, a, a, a)


def test_euler_coefficient(algebras):
    # the distinguished coefficient of 2 sum_i e_i d^i equals -2N
    for data in algebras.values():
        env = get_env(data)
        acc = {}
        for i in range(1, data.dim):
            linalg.vec_iadd(
                acc,
                env.mul(gen(data.dim, i), ev.from_vector(data.dual_vector(i))),
                Fraction(2),
            )
        assert acc.get(tuple(ev.eps(data.dim, 0)), ZERO) == -2 * data.N
