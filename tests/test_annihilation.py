import random
from fractions import Fraction

import pytest

from contactk import annihilation as an
from contactk import enveloping as ev
from contactk.enveloping import get_env

ONE = Fraction(1)
ZERO = Fraction(0)


def in_w_contact(w, p):
    """Membership in W'_p."""
    for (I, j) in w.coeffs:
        need = p + 2 if j == 0 else p + 1
        if ev.contact_degree(I) < need:
            return False
    return True


def test_bracket_alternating(heis1):
    env = get_env(heis1)
    rng = random.Random(0)
    for _ in range(10):
        I = rng.choice(ev.contact_indices(3, 4))
        u = an.w_monomial(3, I, rng.randrange(3), 4)
        assert an.w_bracket(env, u, u).coeffs == {}


def test_w_element_keeps_its_type(heis1):
    # TruncatedWElement reuses DualElement's arithmetic, truncating on the
    # contact degree of the functional in each (I, j) key
    u = an.w_monomial(3, (0, 1, 0), 2, 4)
    v = an.w_monomial(3, (1, 1, 1), 0, 4)
    for w in (u.scale(3), u.add(v), u.truncated(3), u.add(v).truncated(2)):
        assert type(w) is an.TruncatedWElement
    assert u.add(v).coeffs == {((0, 1, 0), 2): ONE, ((1, 1, 1), 0): ONE}
    assert u.add(v).truncated(3).coeffs == {((0, 1, 0), 2): ONE}
    assert repr(u.scale(3)).startswith("TruncatedWElement(T=4, ")
    assert an.w_monomial(3, (0, 1, 0), 0, 0).coeffs == {}


def test_bracket_expansion_against_primitives(heis1):
    # [1 (x) e_0, x^j (x) e_i] = x^j (x) [e_0, e_i] - (x^j e_0) (x) e_i
    env = get_env(heis1)
    for j in range(3):
        for i in range(3):
            lhs = an.w_bracket(
                env,
                an.w_monomial(3, (0, 0, 0), 0, 4),
                an.w_monomial(3, tuple(ev.eps(3, j)), i, 4),
            )
            want = {}
            for k, c in heis1.bracket_basis(0, i):
                want[(tuple(ev.eps(3, j)), k)] = c
            x = ev.dual_covector(3, j, 4)
            x0 = ev.d_right(env, x, heis1.basis_vector(0))
            for K, c in x0.coeffs.items():
                if ev.contact_degree(K) <= lhs.truncation:
                    key = (K, i)
                    want[key] = want.get(key, ZERO) - c
            assert lhs.coeffs == {k: v for k, v in want.items() if v}


def test_bracket_plain_filtration(small_algebras):
    rng = random.Random(2)
    for data in small_algebras.values():
        env = get_env(data)
        idx = ev.multi_indices(3, 3)
        for _ in range(40):
            I, J = rng.choice(idx), rng.choice(idx)
            pi, pj = sum(I) - 1, sum(J) - 1
            if pi < 0 or pj < 0:
                continue
            u = an.w_monomial(3, I, rng.randrange(3), 5)
            v = an.w_monomial(3, J, rng.randrange(3), 5)
            br = an.w_bracket(env, u, v)
            for (K, _m) in br.coeffs:
                assert ev.plain_degree(K) >= pi + pj + 1


def test_bracket_truncation_overflow(heis1):
    env = get_env(heis1)
    u = an.w_monomial(3, (0, 0, 0), 0, 1)
    with pytest.raises(an.TruncationOverflow):
        an.w_bracket(env, u, u)


def test_embed_unit(heis1):
    env = get_env(heis1)
    x = ev.dual_monomial(3, (0, 0, 0), 4)
    assert an.embed_k(env, x).coeffs == {((0, 0, 0), 0): ONE}


def test_embed_contact_filtration(algebras):
    # the image of a filtration-level-p coefficient lies in level p of the
    # contact filtration of the big algebra
    for data in algebras.values():
        env = get_env(data)
        for I in ev.contact_indices(data.dim, 4):
            p = ev.contact_degree(I) - 2  # class level of x_I (x) e
            x = ev.dual_monomial(data.dim, I, 4)
            w = an.embed_k(env, x)
            if p >= 0:
                assert in_w_contact(w, p), (I, p)


def test_fourier_images(algebras):
    for data in algebras.values():
        ok, failures = an.fourier_images_check(get_env(data), 4)
        assert ok, failures


def test_grading_element_expansion(algebras):
    for data in algebras.values():
        assert an.iprime_expansion_check(get_env(data))


def test_gl_quotient(small_algebras):
    for data in small_algebras.values():
        ok, witness = an.w0_quotient_iso_check(get_env(data))
        assert ok and witness is None


def test_gl_quotient_witness_below_truncation_floor(sl2):
    # at truncation 3 the e_0 direction loses the degree-one terms; the
    # check names the first failing quadruple and both sides
    ok, witness = an.w0_quotient_iso_check(get_env(sl2), 3)
    assert not ok
    assert {"a", "m", "lhs", "rhs"} <= set(witness)
    assert witness["lhs"] != witness["rhs"]


def test_csp_quotient(small_algebras):
    for data in small_algebras.values():
        assert an.csp_quotient_check(get_env(data))


def test_contact_filtration_of_brackets(small_algebras):
    for data in small_algebras.values():
        assert an.k_contact_filter_check(get_env(data))


def test_second_step_inside_first_plain(heis1):
    env = get_env(heis1)
    for I in ev.contact_indices(3, 4):
        if ev.contact_degree(I) >= 4:  # class level >= 2
            w = an.embed_k(env, ev.dual_monomial(3, I, 4))
            assert an.in_w_plain(w, 1), I


def test_k_bracket_matches_w_bracket(heis1):
    # the embedding is a homomorphism: compare the dedicated bracket with
    # the bracket of the images, at matching truncation
    env = get_env(heis1)
    rng = random.Random(8)
    for _ in range(15):
        I = rng.choice(ev.contact_indices(3, 5))
        J = rng.choice(ev.contact_indices(3, 5))
        x = ev.dual_monomial(3, I, 5)
        y = ev.dual_monomial(3, J, 5)
        via_k = an.embed_k(env, an.acted_bracket(
            env, an.right_actions(env, x), an.right_actions(env, y)))
        via_w = an.w_bracket(env, an.embed_k(env, x), an.embed_k(env, y))
        t = min(via_k.truncation, via_w.truncation)
        assert via_k.truncated(t).coeffs == via_w.truncated(t).coeffs, (I, J)


def test_dual_filtration_under_actions(heis1):
    env = get_env(heis1)
    for I in ev.contact_indices(3, 4):
        x = ev.dual_monomial(3, I, 4)
        p = ev.contact_degree(I) - 1
        for i in range(3):
            need = p - (2 if i == 0 else 1)
            for res in (
                ev.d_left(env, heis1.basis_vector(i), x),
                ev.d_right(env, x, heis1.basis_vector(i)),
            ):
                for K in res.coeffs:
                    assert ev.contact_degree(K) >= need + 1
